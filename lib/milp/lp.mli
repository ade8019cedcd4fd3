(** Linear / mixed-integer linear program modelling.

    This is the substrate that replaces Gurobi in the reproduction: the
    floorplanner of [3] and the IS-k baseline of [6] both need an exact
    optimizer for small models. Build a model here, then solve its
    continuous relaxation with {!Revised.solve} or the full MILP with
    {!Branch_bound.solve}. *)

type t
(** A mutable model. Variables and constraints are appended; solving
    never mutates the model. *)

type var = private int
(** Variable handle (dense index, stable across the model's lifetime). *)

type sense = Le | Ge | Eq

type objective = Minimize | Maximize

val create : ?objective:objective -> unit -> t
(** A fresh empty model; [objective] defaults to [Minimize]. *)

val add_var : t -> ?lb:float -> ?ub:float -> ?integer:bool -> obj:float ->
  unit -> var
(** New variable with objective coefficient [obj]; bounds default to
    [\[0, +inf)]; [integer] defaults to [false]. Raises
    [Invalid_argument] if [lb > ub] or a bound is NaN. *)

val add_binary : t -> obj:float -> unit -> var
(** Integer variable in [\[0, 1\]]. *)

val add_constraint : t -> (var * float) list -> sense -> float -> unit
(** [add_constraint m terms sense rhs] adds [Σ coeff * var  sense  rhs].
    Repeated variables in [terms] are summed. *)

val num_vars : t -> int
val num_constraints : t -> int
val objective : t -> objective
val obj_coeffs : t -> float array
val var_lb : t -> var -> float
val var_ub : t -> var -> float

(** Whole-model bound/integrality snapshots in index order; O(n) where
    the per-variable accessors above are O(n) {e each}. Solvers use
    these to avoid quadratic model extraction. *)

val lb_array : t -> float array

val ub_array : t -> float array

val integer_array : t -> bool array

val rows : t -> ((int * float) list * sense * float) array
(** Constraint rows as (terms over variable indices, sense, rhs). *)
