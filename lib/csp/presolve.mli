(** Presolve by unit propagation.

    Repeatedly applies two sound inferences to the hard constraints:
    - a constraint whose unassigned variables {e must} all take one value
      for the constraint to stay satisfiable fixes them (e.g. the
      uniqueness equality [x = 1] of a single-candidate extract, or
      [x + y + z >= 3]);
    - a constraint already violated by the fixed variables alone is a
      {e conflict}: the problem is unsatisfiable, no search needed.

    The paper's most common failure certificates (the Michigan planted
    collision, where two forced variables meet an at-most-one position
    constraint) fall out of propagation instantly; {!Tabseg_csp.Exact}
    remains the complete fallback for the rest. *)

type outcome =
  | Fixed of (int * bool) list
      (** sound forced assignments (possibly empty), in propagation
          order *)
  | Conflict of string
      (** the hard constraints are unsatisfiable; the message names the
          first conflicting constraint *)

val run : Pb.problem -> outcome
(** Propagate to fixpoint: passes over the hard rows in row order, each
    row's unknowns taken last term first, until a pass fixes nothing.
    Soft constraints are ignored. *)

val is_unsat : Pb.problem -> bool
(** [run] ended in a conflict, found the same way but with no message
    formatted. *)
