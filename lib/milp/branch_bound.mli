(** Branch-and-bound MILP solver.

    Best-LP-bound-first search. Each node is solved with the
    bounded-variable revised simplex ({!Revised}), warm-starting
    children from the parent's basis (a child differs by one bound, so
    a few dual pivots suffice), and branches on pseudo-costs seeded by
    strong branching at the root. The original search, a dense
    two-phase tableau with most-fractional branching, is the test
    oracle [Milp_oracle.Tableau]; it runs on the heap and node helpers
    exposed below. The search runs on the calling domain and is
    deterministic run-to-run.

    Exact when it terminates within the node budget; otherwise returns
    the incumbent with [proved_optimal = false] (the behaviour the IS-k
    baseline relies on for large chunks). An LP relaxation cut short by
    its iteration cap or the deadline ({!Revised.Limit}) marks the
    search exhausted — it is never treated as an infeasibility proof, so
    unsolved subtrees can no longer be silently pruned. *)

type solution = {
  objective : float;
  values : float array;
  proved_optimal : bool;
  nodes : int;  (** LP relaxations solved *)
}

type result =
  | Optimal of solution  (** [proved_optimal] is true *)
  | Feasible of solution  (** node budget hit with an incumbent *)
  | Infeasible
  | Unbounded
  | Node_limit  (** node budget hit before any integer solution *)

val solve : ?node_limit:int -> ?time_limit:float -> Lp.t -> result
(** [node_limit] defaults to 1_000_000; [time_limit] (wall-clock seconds,
    default unlimited) turns the solver into an anytime procedure. A
    relaxation value within 1e-6 of an integer counts as integral.
    Integer variables must have finite bounds. *)

(** {2 Search helpers}

    The best-first heap and search nodes {!solve} runs on, shared with
    the dense-tableau oracle in the test tree. *)

(** A min-heap on float keys. *)
module Heap : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> float -> 'a -> unit
  val pop : 'a t -> (float * 'a) option
end

type node
(** A search node: the one bound it changes relative to its parent,
    the chain back to the root, and the parent's optimal basis. *)

val root_node : node

val materialize : node -> float array -> float array -> unit
(** [materialize nd lb ub] tightens [lb] and [ub], preloaded with the
    model's bounds, to the node's box. *)

val make_children : node -> key:float -> var:int -> value:float ->
  Revised.snapshot option -> node * node
(** The down ([var <= floor value]) and up ([var >= floor value + 1])
    children of a node whose relaxation has [var] at [value], keyed by
    its LP bound [key] (minimization direction). *)

val most_fractional : integer:bool array -> float array -> int
(** The integer variable farthest from integral, or -1 when every
    integer variable is integral. *)
