(** Step 7 — reconfigurations scheduling (Sec. V-G).

    Decides a total order for the reconfiguration tasks on the single
    reconfiguration controller. Critical reconfigurations (outgoing task
    on the critical path) are placed first, lowest [T_MIN] first, since
    any delay on them propagates fully; each non-critical one is then
    inserted at the earliest controller slot compatible with its window,
    shifting later reconfigurations as required (realized by splicing it
    into the timed controller chain and pushing the delay forward, which
    is exactly the paper's delay propagation). *)

type arena
(** Reusable buffers for {!run_hot}: a {!Timing.Solver.scratch} solver,
    a closure buffer and the sequencing arrays — one per restart arena
    ({!Pa.Context}), refilled every call. *)

val make_arena : unit -> arena

type plan = {
  p_specs : Timing.reconf_spec array;
      (** the reconfigurations, from {!Timing.reconf_specs} *)
  p_seq : int array;
      (** controller sequence: the first [p_len] entries, {e borrowed}
          from the arena *)
  p_len : int;
  p_times : Timing.resolved;
      (** final resolved times over the complete sequence, {e borrowed}
          from the arena's solver *)
}

val run_hot : ?module_reuse:bool -> arena -> State.t -> plan
(** Sequence the state's reconfigurations ({!Timing.reconf_specs}) on
    the controller and resolve the final times, so callers can read
    every start/end time without re-timing. One full resolve times the
    empty chain; each insertion then {!Timing.Solver.splice}s into the
    arena's solver, and dependency-order queries are answered from one
    {!Resched_taskgraph.Graph.closure}.
    The returned plan aliases the arena — valid only until the next
    [run_hot] on the same arena; copy what must survive. *)
