(** Inference over a position-dependent hidden-state lattice — the
    computational core of the paper's factored-HMM segmenter (Section 5).

    States are caller-encoded integers; the set of admissible states may
    differ at every position (the detail-page constraints restrict [R_i] to
    [D_i]), which is how the bootstrap information enters the model. All
    probabilities are log-space. *)

type lattice = {
  length : int;  (** number of positions (extracts); must be ≥ 1 *)
  states : int -> int array;
      (** admissible encoded states at each position *)
  preds : int -> int -> int array;
      (** [preds i s], for [i >= 1]: the indices into [states (i - 1)],
          strictly ascending, of every state whose transition into the
          [s]-th state at [i] can be non-zero. Inference visits only these
          pairs, so its cost follows the number of admissible transitions
          rather than the number of pairs of states. The caller must not
          leave out a predecessor whose [trans] is not [Logspace.zero]:
          nothing checks this, and the transition's probability mass is
          silently dropped from every result. Listing a predecessor whose
          [trans] is zero is harmless. *)
  init : int -> float;  (** log prior of a state at position 0 *)
  trans : int -> int -> int -> float;
      (** [trans i prev cur]: log transition probability into position
          [i ≥ 1] *)
  emit : int -> int -> float;  (** log emission at position [i] *)
}

val viterbi : lattice -> int array option
(** The maximum a posteriori state path, or [None] when every path has zero
    probability (an over-constrained lattice). *)

type posteriors = {
  log_likelihood : float;
  gamma : float array array;
      (** [gamma.(i).(s)]: posterior probability (linear space) of the
          [s]-th admissible state at position [i] *)
  xi : (int * int * float) list array;
      (** [xi.(i)] for [i ≥ 1]: posterior transition probabilities
          [(prev_index, cur_index, p)], entries below 1e-12 omitted *)
}

val forward_backward : lattice -> posteriors option
(** Full posteriors, or [None] when the lattice admits no path. *)

val path_log_prob : lattice -> int array -> float
(** Log joint probability of a concrete state path (states given by their
    encoded values). *)
