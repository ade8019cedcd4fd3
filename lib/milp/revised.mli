(** Bounded-variable revised simplex over an LU-factorized basis.

    The LP solver behind {!Branch_bound}. Unlike a dense tableau (the
    test tree keeps one, [Milp_oracle.Simplex], as its oracle) it never
    adds rows for finite upper bounds — a nonbasic variable sits at
    either bound and crosses to the other one via a bound flip in the
    ratio test — so the basis stays [m x m] for an [m]-row model, and it
    supports warm starts: after a single bound change the previous
    optimal basis is still dual feasible, and {!solve_warm} reaches the
    new optimum in a few dual-simplex pivots instead of a full two-phase
    solve. *)

type solution = { objective : float; values : float array }
(** [values] holds one value per model variable, in index order. *)

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Limit
      (** The iteration cap or the [deadline] cut the solve short: the
          model's status is unknown. {!Branch_bound} treats this as
          "node budget exhausted", never as an infeasibility proof. *)

type t
(** Mutable solver state: model data (immutable) plus bounds, basis,
    factorization and iterate. *)

type snapshot
(** An immutable basis snapshot ([status] + [basis] arrays) taken by
    {!save_basis}; cheap to retain per branch-and-bound node. *)

val make :
  ?refactor_every:int ->
  goal:Lp.objective ->
  obj:float array ->
  lb:float array ->
  ub:float array ->
  rows:((int * float) list * Lp.sense * float) array ->
  unit ->
  t
(** Build solver state from raw arrays (a model's objective, bounds and
    {!Lp.rows}). Every variable needs a finite lower bound.
    [refactor_every] bounds the eta file length (default 48). *)

val of_model : Lp.t -> t
(** [make] from a model's own goal, objective, bounds and rows. *)

val set_bounds : t -> lb:float array -> ub:float array -> unit
(** Overwrite the structural variables' bounds (one entry per model
    variable, {!Lp.num_vars}); logical bounds are fixed by the row senses. *)

val save_basis : t -> snapshot
val load_basis : t -> snapshot -> bool
(** Restore a snapshot and refactorize; [false] if the snapshot's basis
    is singular under the current bounds (caller should {!solve_fresh}). *)

val solve_fresh : ?deadline:float -> t -> result
(** Two-phase primal solve from the all-logical basis, ignoring any
    previous state. [deadline] is an absolute [Unix.gettimeofday]
    instant; hitting it (or the iteration cap) yields [Limit]. *)

val solve_warm : ?deadline:float -> t -> result
(** Re-solve after bound changes, starting from the current basis: dual
    simplex to primal feasibility, then a certifying primal cleanup.
    Falls back to {!solve_fresh} when the warm start stalls, and behaves
    exactly like it when the state is unfactored. *)

val last_pivots : t -> int
(** Pivot count of the most recent [solve_fresh]/[solve_warm] call. *)

val solve : Lp.t -> result
(** Solve a model's continuous relaxation (integrality markers are
    ignored) from scratch. *)

