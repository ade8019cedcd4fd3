module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Generator = Resched_taskgraph.Generator

type params = {
  fast_time_min : int;
  fast_time_max : int;
  medium_time_factor : float;
  small_time_factor : float;
  medium_area_factor : float;
  small_area_factor : float;
  sw_factor_min : float;
  sw_factor_max : float;
  clb_min : int;
  clb_max : int;
  p_dsp_heavy : float;
  p_bram_heavy : float;
  p_shared_impl : float;
  width_of_tasks : int -> int;
  edge_probability : float;
}

(* Calibrated so that FPGA contention is the dominant effect from ~20
   tasks on (see DESIGN.md): the fastest hardware implementation of a
   task occupies a sizeable fraction of the XC7Z020, so schedulers that
   greedily pick it (IS-1) run out of parallel regions, while the
   resource-efficient implementations (~4-5x smaller, ~2.6x slower)
   allow many concurrent regions — the Fig. 1 trade-off at suite scale. *)
let default_params =
  {
    fast_time_min = 150;
    fast_time_max = 1500;
    medium_time_factor = 1.6;
    small_time_factor = 2.6;
    medium_area_factor = 0.5;
    small_area_factor = 0.2;
    sw_factor_min = 3.0;
    sw_factor_max = 6.0;
    clb_min = 2000;
    clb_max = 5000;
    p_dsp_heavy = 0.35;
    p_bram_heavy = 0.35;
    p_shared_impl = 0.30;
    width_of_tasks = (fun tasks -> 2 + (tasks / 12));
    edge_probability = 0.07;
  }

(* A template is the full implementation set of one "module family"; tasks
   that share a template share module ids, enabling module reuse. *)
let fresh_template p rng next_module_id =
  let log_uniform lo hi =
    let lo = float_of_int lo and hi = float_of_int hi in
    int_of_float (exp (log lo +. Rng.float rng (log hi -. log lo)))
  in
  let fast_time = log_uniform p.fast_time_min p.fast_time_max in
  let clb = Rng.int_in rng p.clb_min p.clb_max in
  let dsp = if Rng.float rng 1.0 < p.p_dsp_heavy then Rng.int_in rng 8 48 else 0 in
  let bram = if Rng.float rng 1.0 < p.p_bram_heavy then Rng.int_in rng 4 24 else 0 in
  let large = Resource.make ~clb ~bram ~dsp in
  let jitter lo hi = lo +. Rng.float rng (hi -. lo) in
  let shrink res f =
    let s x = Stdlib.max (if x > 0 then 1 else 0) (int_of_float (float_of_int x *. f)) in
    Resource.make ~clb:(s res.Resource.clb) ~bram:(s res.Resource.bram)
      ~dsp:(s res.Resource.dsp)
  in
  let time f = Stdlib.max 1 (int_of_float (float_of_int fast_time *. f)) in
  let mid = !next_module_id in
  next_module_id := mid + 3;
  let hw_fast =
    Impl.hw ~module_id:mid ~time:fast_time ~res:large ()
  in
  let hw_medium =
    Impl.hw ~module_id:(mid + 1)
      ~time:(time (p.medium_time_factor *. jitter 0.9 1.1))
      ~res:(shrink large (p.medium_area_factor *. jitter 0.9 1.1)) ()
  in
  let hw_small =
    Impl.hw ~module_id:(mid + 2)
      ~time:(time (p.small_time_factor *. jitter 0.9 1.1))
      ~res:(shrink large (p.small_area_factor *. jitter 0.9 1.1)) ()
  in
  let sw =
    Impl.sw ~time:(time (jitter p.sw_factor_min p.sw_factor_max))
  in
  [| sw; hw_fast; hw_medium; hw_small |]

let instance ?(params = default_params) ?(arch = Arch.zedboard) rng ~tasks =
  let graph =
    Generator.layered rng ~tasks ~width:(params.width_of_tasks tasks)
      ~edge_probability:params.edge_probability
  in
  let next_module_id = ref 0 in
  let templates = ref [] in
  let impls =
    Array.init tasks (fun _ ->
        let reuse =
          !templates <> [] && Rng.float rng 1.0 < params.p_shared_impl
        in
        if reuse then Rng.choose rng (Array.of_list !templates)
        else begin
          let t = fresh_template params rng next_module_id in
          templates := t :: !templates;
          t
        end)
  in
  Instance.make ~arch ~graph ~impls ()

let group ?params ?arch ~seed ~tasks ~count () =
  let rng = Rng.create (seed + (tasks * 7919)) in
  List.init count (fun _ -> instance ?params ?arch rng ~tasks)

let full ?(graphs_per_group = 10) ~seed () =
  List.init 10 (fun i ->
      let tasks = (i + 1) * 10 in
      (tasks, group ~seed ~tasks ~count:graphs_per_group ()))
