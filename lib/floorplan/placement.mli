(** Feasible placements of reconfigurable regions on the device fabric.

    Following the feasible-placement-detection idea of Rabozzi et al. [3],
    a placement of a region is an axis-aligned rectangle of whole
    column x clock-region tiles whose enclosed resources cover the
    region's requirements. Only *minimal-width* rectangles are enumerated
    (for a fixed row span and left column, the smallest right column that
    fits): any wider rectangle only wastes resources, and a packing using
    wider rectangles can be normalized to one using minimal ones. *)

type rect = { c0 : int; c1 : int; r0 : int; r1 : int }
(** Inclusive column span [c0..c1] and clock-region span [r0..r1]. *)

val width : rect -> int
val height : rect -> int
val overlap : rect -> rect -> bool
val resources : Resched_fabric.Device.t -> rect -> Resched_fabric.Resource.t

val candidates : Resched_fabric.Device.t -> Resched_fabric.Resource.t ->
  rect list
(** All minimal placements for a region requiring the given resources,
    sorted by enclosed-area (total resource units) ascending, i.e.
    snuggest first. Empty when the region cannot fit anywhere (even on an
    empty device). Raises [Invalid_argument] on the zero requirement.
    The column-interval packer builds the same list on prefix sums (see
    {!Packer.candidates}). *)

val candidate_count_cap : int
(** Safety cap on the number of candidates returned per region (the
    snuggest ones are kept). *)
