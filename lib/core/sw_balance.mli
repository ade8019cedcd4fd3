(** Step 4 — software task balancing (Sec. V-D).

    Region definition may have pushed tasks to software, leaving FPGA
    regions idle while hardware tasks wait. This pass revisits software
    tasks that do own hardware implementations (lowest [T_MIN] first) and
    moves one back to hardware when (a) its start lies beyond the
    estimated total reconfiguration time [totRecTime] (eq. 6) — the
    paper's proxy for "the extra reconfiguration will not contend" — and
    (b) some region can host it without window overlap. *)

val tot_rec_time : State.t -> int
(** Eq. 6: Σ_s reconf_s * (|T_s| - 1). *)

val run : State.t -> unit
(** Mutates implementations, placements and windows. *)
