(* In-place stable insertion sorts over borrowed scratch segments.

   The restart kernel (PR 7) replaced every per-iteration [List.sort]
   with a hand-rolled insertion sort over a reused scratch array — and
   copied that loop into four pipeline files. This module is the single
   shared implementation. Stability matters: each caller documents that
   its order is bit-identical to the stdlib's [List.sort]/[List.stable_sort]
   (a stable merge sort), and insertion sort preserves ties the same
   way, so the dedup cannot change any schedule. *)

(* Element and key types are annotated: left generic, every comparison
   below would compile to a call to the polymorphic [compare]
   primitives. *)
let by_int_key (arr : int array) ~base ~len ~(key : int -> int) =
  for j = base + 1 to base + len - 1 do
    let v = arr.(j) in
    let kv = key v in
    let p = ref (j - 1) in
    while !p >= base && key arr.(!p) > kv do
      arr.(!p + 1) <- arr.(!p);
      decr p
    done;
    arr.(!p + 1) <- v
  done

let by_float_keys (arr : int array) (keys : float array) ~base ~len ~desc =
  for j = base + 1 to base + len - 1 do
    let v = arr.(j) and kv = keys.(j) in
    let p = ref (j - 1) in
    while
      !p >= base && (if desc then keys.(!p) < kv else keys.(!p) > kv)
    do
      arr.(!p + 1) <- arr.(!p);
      keys.(!p + 1) <- keys.(!p);
      decr p
    done;
    arr.(!p + 1) <- v;
    keys.(!p + 1) <- kv
  done
