module Resource = Resched_fabric.Resource

type kind = Hw | Sw

type t = {
  kind : kind;
  time : int;
  res : Resource.t;
  module_id : int option;
}

let sw ~time =
  if time <= 0 then invalid_arg "Impl.sw: time must be positive";
  { kind = Sw; time; res = Resource.zero; module_id = None }

let hw ?module_id ~time ~res () =
  if time <= 0 then invalid_arg "Impl.hw: time must be positive";
  if res.Resource.clb < 0 || res.Resource.bram < 0 || res.Resource.dsp < 0
  then invalid_arg "Impl.hw: negative resources";
  if Resource.is_zero res then invalid_arg "Impl.hw: empty resources";
  { kind = Hw; time; res; module_id }

let is_hw i = i.kind = Hw
let is_sw i = i.kind = Sw

let pp ppf i =
  match i.kind with
  | Sw -> Format.fprintf ppf "SW(time=%d)" i.time
  | Hw ->
    Format.fprintf ppf "HW(time=%d, res=%a%s)" i.time Resource.pp i.res
      (match i.module_id with
      | None -> ""
      | Some m -> Printf.sprintf ", module=%d" m)
