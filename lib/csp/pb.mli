(** Pseudo-boolean constraint problems: 0–1 variables under linear
    constraints (paper Section 4), the input language of {!Wsat_oip},
    {!Presolve} and {!Exact}.

    A constraint is [Σ coeff_v · x_v ⋈ bound] with [⋈ ∈ {≤, ≥, =}].
    Constraints are {e hard} (must hold) or {e soft} (violations are
    penalized by a weight; the solver minimizes total penalty) — soft
    constraints realize the paper's "relaxed" mode and over-constrained
    integer programming generally.

    Callers describe rows as {!constraint_} values and hand them to
    {!make}, or write the flat arrays themselves and hand them to
    {!of_arrays}. Either way a {!problem} is flat: one offset array over
    the terms, the terms' variables and coefficients, and a relation,
    bound and weight per row — no block per row, so a solver walks it
    without allocating and a problem the size of a page's encoding is a
    handful of arrays for the GC, not three blocks per row.

    {b Order.} Rows keep the order they were given in and each row its
    terms' order, and {!var_rows} lists each variable's rows in
    descending row order. {!Wsat_oip}'s seeded walk depends on all
    three: the violated set, from which it draws, grows in row order and
    is updated in a variable's row order, and a tie between candidate
    flips goes to the row's earlier term. *)

type relation = Le | Ge | Eq

type linear = {
  terms : (int * int) array;  (** (variable, coefficient) pairs *)
  relation : relation;
  bound : int;
}

type constraint_ = Hard of linear | Soft of linear * int
(** A soft constraint carries a positive weight: the penalty incurred per
    unit of violation. *)

type problem = private {
  num_vars : int;
  row_start : int array;
      (** [num_rows + 1] offsets: row [r]'s terms are the indices
          [row_start.(r)] to [row_start.(r + 1) - 1] of [vars] and
          [coeffs]; [row_start.(0) = 0] *)
  vars : int array;  (** each term's variable *)
  coeffs : int array;  (** each term's coefficient *)
  relations : relation array;  (** per row *)
  bounds : int array;  (** per row *)
  weights : int array;
      (** per row: 0 for a hard row, the positive weight of a soft one *)
}
(** Every array is exactly as long as the rows need, so two problems with
    the same rows are equal under [=]. *)

val make : num_vars:int -> constraint_ list -> problem
(** @raise Invalid_argument on a variable outside [0, num_vars), a
    duplicate variable within one constraint, or a non-positive soft
    weight — the first bad term of the first bad row, a row's terms
    checked before its weight. *)

val of_arrays :
  num_vars:int ->
  row_start:int array ->
  vars:int array ->
  coeffs:int array ->
  relations:relation array ->
  bounds:int array ->
  weights:int array ->
  problem
(** The problem made of these arrays, which it takes over (the caller
    must not write them afterwards); a weight of 0 makes a hard row.
    @raise Invalid_argument as {!make} does, a negative weight counting
    as a non-positive soft weight, or when the arrays' lengths or the
    offsets do not fit together. *)

val num_rows : problem -> int

val row : problem -> int -> constraint_
(** Row [r] as the constraint it was made from:
    [make ~num_vars:p.num_vars (List.init (num_rows p) (row p)) = p]. *)

type var_rows = {
  start : int array;
      (** [num_vars + 1] offsets: variable [v]'s occurrences are the
          indices [start.(v)] to [start.(v + 1) - 1] of [rows] and
          [coeffs] *)
  rows : int array;  (** each occurrence's row, a variable's descending *)
  coeffs : int array;  (** the variable's coefficient in that row *)
}

val var_rows : problem -> var_rows
(** The rows each variable occurs in, soft rows included. *)

val linear : (int * int) list -> relation -> int -> linear

val at_most_one : int list -> linear
(** [Σ x_v ≤ 1]. *)

val exactly_one : int list -> linear
(** [Σ x_v = 1]. *)

val violation : linear -> bool array -> int
(** By how much the assignment violates the constraint (0 when satisfied):
    for [≤] the excess above the bound, for [≥] the shortfall, for [=] the
    absolute difference. *)

val satisfied : linear -> bool array -> bool

val hard_violations : problem -> bool array -> int
(** Number of violated hard constraints. *)

val soft_cost : problem -> bool array -> int
(** Total weighted violation of soft constraints. *)

val feasible : problem -> bool array -> bool
(** All hard constraints satisfied. *)

val pp_linear : Format.formatter -> linear -> unit

val pp_row : problem -> Format.formatter -> int -> unit
(** Row [r] as {!pp_linear} prints it, without its soft weight. *)

val pp : Format.formatter -> problem -> unit
