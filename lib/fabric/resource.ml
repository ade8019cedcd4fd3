type kind = Clb | Bram | Dsp

let kinds = [| Clb; Bram; Dsp |]

let kind_name = function Clb -> "CLB" | Bram -> "BRAM" | Dsp -> "DSP"

type t = { clb : int; bram : int; dsp : int }

let zero = { clb = 0; bram = 0; dsp = 0 }
let make ~clb ~bram ~dsp = { clb; bram; dsp }

let get t = function Clb -> t.clb | Bram -> t.bram | Dsp -> t.dsp

let set t kind v =
  match kind with
  | Clb -> { t with clb = v }
  | Bram -> { t with bram = v }
  | Dsp -> { t with dsp = v }

let add a b = { clb = a.clb + b.clb; bram = a.bram + b.bram; dsp = a.dsp + b.dsp }
let sub a b = { clb = a.clb - b.clb; bram = a.bram - b.bram; dsp = a.dsp - b.dsp }

let scale t f =
  let s x = int_of_float (float_of_int x *. f) in
  { clb = s t.clb; bram = s t.bram; dsp = s t.dsp }

let fits v ~within:w = v.clb <= w.clb && v.bram <= w.bram && v.dsp <= w.dsp

let max_components a b =
  { clb = Stdlib.max a.clb b.clb;
    bram = Stdlib.max a.bram b.bram;
    dsp = Stdlib.max a.dsp b.dsp }

let total_units t = t.clb + t.bram + t.dsp
let is_zero t = t.clb = 0 && t.bram = 0 && t.dsp = 0
let equal a b = a.clb = b.clb && a.bram = b.bram && a.dsp = b.dsp

let compare a b =
  let c = Stdlib.compare a.clb b.clb in
  if c <> 0 then c
  else begin
    let c = Stdlib.compare a.bram b.bram in
    if c <> 0 then c else Stdlib.compare a.dsp b.dsp
  end

let weighted_sum ~weights t =
  (weights Clb *. float_of_int t.clb)
  +. (weights Bram *. float_of_int t.bram)
  +. (weights Dsp *. float_of_int t.dsp)

let pp ppf t = Format.fprintf ppf "{CLB=%d; BRAM=%d; DSP=%d}" t.clb t.bram t.dsp
let to_string t = Format.asprintf "%a" pp t
