module Device = Resched_fabric.Device
module Bitstream = Resched_fabric.Bitstream

type t = {
  processors : int;
  device : Device.t;
  bits_per_tick : float;
}

let make ~processors ~device ?(bits_per_tick = Device.icap_default_bits_per_us)
    () =
  if processors <= 0 then invalid_arg "Arch.make: processors must be positive";
  if not (Float.is_finite bits_per_tick && bits_per_tick > 0.) then
    invalid_arg "Arch.make: bits_per_tick must be positive and finite";
  { processors; device; bits_per_tick }

let zedboard = make ~processors:2 ~device:Device.xc7z020 ()
let microzed = make ~processors:2 ~device:Device.xc7z010 ()
let zc706 = make ~processors:2 ~device:Device.xc7z045 ()
let mini = make ~processors:1 ~device:Device.minifab ()
let max_res t = t.device.Device.total

let reconf_ticks t res =
  Bitstream.reconf_ticks t.device.Device.model ~bits_per_tick:t.bits_per_tick
    res

let pp ppf t =
  Format.fprintf ppf "%d cores + %a @ %.0f bits/tick" t.processors Device.pp
    t.device t.bits_per_tick
