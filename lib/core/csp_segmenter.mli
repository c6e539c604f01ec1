(** The CSP approach to record segmentation (paper Section 4).

    Assignment variables [x_ij] (extract [E_i] belongs to record [r_j],
    restricted to [r_j ∈ D_i]) under:
    - {e uniqueness}: every extract belongs to exactly one record
      (relaxed: at most one);
    - {e consecutiveness}: only contiguous blocks of extracts may share a
      record — encoded pairwise whenever an intermediate extract cannot
      belong to the record;
    - {e position}: extracts observed at the same position on a detail page
      compete for that record — exactly (relaxed: at most) one of them
      belongs to it;
    - {e monotonicity}: records appear in stream order (implied by the
      paper's horizontal-layout assumption, made explicit here).

    The strict problem is handed to {!Tabseg_csp.Wsat_oip}; if the local
    search fails, {!Tabseg_csp.Exact} certifies unsatisfiability (paper
    note "c"), after which the equalities are relaxed to inequalities with a
    soft preference for assigning every extract (note "d"), yielding a
    partial segmentation. *)

open Tabseg_extract
open Tabseg_csp

type mode = Strict | Relaxed

type relaxed_objective =
  | Paper
      (** pure satisfaction, as the paper used WSAT(OIP): the relaxed
          problem is satisfied by any partial assignment, so the local
          search returns an arbitrary feasible point — reproducing the
          paper's degraded partial solutions *)
  | Coverage
      (** add a weight-1 soft exactly-one per extract so the relaxed solve
          maximizes the number of assigned extracts — a strictly better
          relaxation, kept as an ablation *)

type config = {
  monotone : bool;  (** include monotonicity constraints (default true) *)
  relaxed_objective : relaxed_objective;  (** default [Paper] *)
  wsat : Wsat_oip.params;
  exact_node_limit : int;
}

val default_config : config

val coverage_config : config
(** {!default_config} with the [Coverage] relaxation. *)

type encoded = {
  problem : Pb.problem;
  variables : (int * int) array;
      (** variable -> (entry index, detail page) *)
}

val encode : ?config:config -> mode -> Observation.t -> encoded
(** Build the pseudo-boolean problem for an observation table. Entry [i]'s
    candidate records get consecutive variables, entries in stream order.
    The rows are the uniqueness rows, one per entry, then the
    consecutiveness, position and monotonicity rows. In [Relaxed] mode the
    uniqueness equalities become [≤] (with [Coverage], each followed by a
    weight-1 soft constraint preferring assignment); the other rows are the
    same in both modes, and {!segment} builds them once for both. *)

val segment : ?config:config -> Pipeline.prepared -> Segmentation.t
(** Run the full strict-then-relax procedure and assemble the segmentation
    (extras are attached per Section 6.2; notes reflect what happened). *)

val solve_observation :
  ?config:config -> Observation.t -> Segmentation.t
(** Like {!segment} but directly from an observation table with no extras
    and no pipeline notes — convenient for tests and the paper's worked
    example. *)
