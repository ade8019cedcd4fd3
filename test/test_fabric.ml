(* Tests for the fabric substrate: resource vectors, the bitstream model
   (eqs. 1-2) and the device geometry. *)

module Resource = Resched_fabric.Resource
module Bitstream = Resched_fabric.Bitstream
module Device = Resched_fabric.Device

let res = Alcotest.testable Resource.pp Resource.equal

let v ~clb ~bram ~dsp = Resource.make ~clb ~bram ~dsp

let test_resource_arith () =
  let a = v ~clb:10 ~bram:2 ~dsp:1 and b = v ~clb:5 ~bram:1 ~dsp:3 in
  Alcotest.check res "add" (v ~clb:15 ~bram:3 ~dsp:4) (Resource.add a b);
  Alcotest.check res "sub" (v ~clb:5 ~bram:1 ~dsp:(-2)) (Resource.sub a b);
  Alcotest.check res "max" (v ~clb:10 ~bram:2 ~dsp:3)
    (Resource.max_components a b);
  Alcotest.(check int) "total" 13 (Resource.total_units a)

let test_resource_fits () =
  let small = v ~clb:5 ~bram:1 ~dsp:0 and big = v ~clb:10 ~bram:1 ~dsp:0 in
  Alcotest.(check bool) "fits" true (Resource.fits small ~within:big);
  Alcotest.(check bool) "does not fit" false (Resource.fits big ~within:small);
  Alcotest.(check bool) "equal fits" true (Resource.fits big ~within:big)

let test_resource_scale () =
  Alcotest.check res "90%" (v ~clb:9 ~bram:1 ~dsp:0)
    (Resource.scale (v ~clb:10 ~bram:2 ~dsp:1) 0.9);
  Alcotest.check res "identity" (v ~clb:10 ~bram:2 ~dsp:1)
    (Resource.scale (v ~clb:10 ~bram:2 ~dsp:1) 1.0)

let test_resource_get_set () =
  let a = v ~clb:1 ~bram:2 ~dsp:3 in
  Array.iter
    (fun kind ->
      let a' = Resource.set a kind 9 in
      Alcotest.(check int) "set/get" 9 (Resource.get a' kind))
    Resource.kinds;
  Alcotest.(check string) "kind name" "CLB" (Resource.kind_name Resource.Clb)

let test_bits_per_unit () =
  (* CLB: 36 frames * 3232 bits / 50 slices = 2327.04 bits per slice. *)
  Alcotest.(check (float 1e-6)) "CLB" 2327.04
    (Bitstream.bits_per_unit Bitstream.seven_series Resource.Clb);
  Alcotest.(check (float 1e-6)) "BRAM" 9049.6
    (Bitstream.bits_per_unit Bitstream.seven_series Resource.Bram);
  Alcotest.(check (float 1e-6)) "DSP" 4524.8
    (Bitstream.bits_per_unit Bitstream.seven_series Resource.Dsp)

let test_region_bits_additive () =
  let m = Bitstream.seven_series in
  let a = v ~clb:10 ~bram:1 ~dsp:0 and b = v ~clb:5 ~bram:0 ~dsp:2 in
  Alcotest.(check (float 1e-6)) "additive"
    (Bitstream.region_bits m a +. Bitstream.region_bits m b)
    (Bitstream.region_bits m (Resource.add a b))

let test_reconf_ticks () =
  let m = Bitstream.seven_series in
  (* 100 CLB = 232704 bits; at 3200 bits/tick -> ceil(72.72) = 73. *)
  Alcotest.(check int) "100 CLB" 73
    (Bitstream.reconf_ticks m ~bits_per_tick:3200. (v ~clb:100 ~bram:0 ~dsp:0));
  Alcotest.(check int) "zero region" 0
    (Bitstream.reconf_ticks m ~bits_per_tick:3200. Resource.zero);
  Alcotest.(check int) "at least 1 tick" 1
    (Bitstream.reconf_ticks m ~bits_per_tick:1e12 (v ~clb:1 ~bram:0 ~dsp:0))

let test_xc7z020_totals () =
  let d = Device.xc7z020 in
  Alcotest.check res "totals" (v ~clb:13350 ~bram:150 ~dsp:240) d.Device.total;
  Alcotest.(check int) "rows" 3 d.Device.rows;
  Alcotest.(check int) "columns" 98 (Array.length d.Device.columns)

let test_other_zynq_totals () =
  Alcotest.check res "xc7z010" (v ~clb:4400 ~bram:60 ~dsp:80)
    Device.xc7z010.Device.total;
  Alcotest.check res "xc7z045" (v ~clb:54950 ~bram:560 ~dsp:980)
    Device.xc7z045.Device.total

let test_device_total_consistent_with_rects () =
  List.iter
    (fun d ->
      let ncols = Array.length d.Device.columns in
      let full =
        Device.rect_resources d ~c0:0 ~c1:(ncols - 1) ~r0:0
          ~r1:(d.Device.rows - 1)
      in
      Alcotest.check res
        (d.Device.name ^ ": full rectangle = total")
        d.Device.total full)
    [ Device.xc7z010; Device.xc7z020; Device.xc7z045; Device.minifab ]

let test_rect_resources_additive_in_rows () =
  let d = Device.xc7z020 in
  let row0 = Device.rect_resources d ~c0:0 ~c1:20 ~r0:0 ~r1:0 in
  let rows01 = Device.rect_resources d ~c0:0 ~c1:20 ~r0:0 ~r1:1 in
  Alcotest.check res "two rows = 2x one row" (Resource.add row0 row0) rows01

let test_rect_resources_bounds () =
  let d = Device.minifab in
  Alcotest.check_raises "bad column"
    (Invalid_argument "Device.rect_resources: bad column span") (fun () ->
      ignore (Device.rect_resources d ~c0:0 ~c1:100 ~r0:0 ~r1:0));
  Alcotest.check_raises "bad row"
    (Invalid_argument "Device.rect_resources: bad row span") (fun () ->
      ignore (Device.rect_resources d ~c0:0 ~c1:1 ~r0:1 ~r1:0))

let test_device_make_rejects_bad_geometry () =
  Alcotest.check_raises "rows must be positive"
    (Invalid_argument "Device.make: rows must be positive") (fun () ->
      ignore
        (Device.make ~name:"x" ~columns:[| Resource.Clb |] ~rows:0
           ~model:Resched_fabric.Bitstream.seven_series));
  Alcotest.check_raises "needs columns"
    (Invalid_argument "Device.make: no columns") (fun () ->
      ignore
        (Device.make ~name:"x" ~columns:[||] ~rows:1
           ~model:Resched_fabric.Bitstream.seven_series))

let test_presets () =
  Alcotest.(check bool) "xc7z020 preset" true (Device.by_name "XC7Z020" <> None);
  Alcotest.(check bool) "minifab preset" true (Device.by_name "minifab" <> None);
  Alcotest.(check bool) "unknown" true (Device.by_name "virtex" = None)

(* Property: any in-bounds rectangle's resources fit within the device
   total, and widening the rectangle never loses resources. *)
let prop_rect_monotone =
  QCheck.Test.make ~count:200 ~name:"rect resources monotone"
    QCheck.(
      quad (int_range 0 97) (int_range 0 97) (int_range 0 2) (int_range 0 2))
    (fun (a, b, r1, r2) ->
      let d = Resched_fabric.Device.xc7z020 in
      let c0 = min a b and c1 = max a b in
      let r0 = min r1 r2 and r1 = max r1 r2 in
      let inner = Device.rect_resources d ~c0 ~c1 ~r0 ~r1 in
      let wider =
        Device.rect_resources d ~c0:(max 0 (c0 - 1)) ~c1 ~r0 ~r1
      in
      Resource.fits inner ~within:d.Device.total
      && Resource.fits inner ~within:wider)

let () =
  Alcotest.run "fabric"
    [
      ( "resource",
        [
          Alcotest.test_case "arithmetic" `Quick test_resource_arith;
          Alcotest.test_case "fits" `Quick test_resource_fits;
          Alcotest.test_case "scale" `Quick test_resource_scale;
          Alcotest.test_case "get/set/kinds" `Quick test_resource_get_set;
        ] );
      ( "bitstream",
        [
          Alcotest.test_case "bits per unit" `Quick test_bits_per_unit;
          Alcotest.test_case "region bits additive" `Quick
            test_region_bits_additive;
          Alcotest.test_case "reconf ticks" `Quick test_reconf_ticks;
        ] );
      ( "device",
        [
          Alcotest.test_case "xc7z020 totals" `Quick test_xc7z020_totals;
          Alcotest.test_case "xc7z010/xc7z045 totals" `Quick
            test_other_zynq_totals;
          Alcotest.test_case "full rect = total" `Quick
            test_device_total_consistent_with_rects;
          Alcotest.test_case "rows additive" `Quick
            test_rect_resources_additive_in_rows;
          Alcotest.test_case "bounds checked" `Quick test_rect_resources_bounds;
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "geometry validation" `Quick
            test_device_make_rejects_bad_geometry;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_rect_monotone ]);
    ]
