(** Inference over a position-dependent hidden-state lattice — the
    computational core of the paper's factored-HMM segmenter (Section 5).

    States are caller-encoded integers; the set of admissible states may
    differ at every position (the detail-page constraints restrict [R_i] to
    [D_i]), which is how the bootstrap information enters the model. All
    probabilities are log-space.

    A lattice comes in two parts. Its {!structure} (the states and each
    state's predecessors) is fixed for a page, and the caller builds it
    once. Its {!weights} (initial, emission and transition
    log-probabilities) follow the model's parameters, and the caller
    refills them in place before each pass, once per EM iteration. The
    passes read both as flat arrays and write into buffers allocated once
    by {!create}: no closure is called and nothing is allocated per edge.

    Every pass visits only the listed predecessors of each state, in
    ascending order, which is the order of the dense loops over every pair
    of states. A left-out predecessor has a [Logspace.zero] transition: it
    moves no maximum, adds exactly 0 to every sum and wins no strict
    comparison. So every result equals the dense loops' in every bit;
    [test/test_hmm.ml] keeps the dense loops as its reference and compares
    the two on random lattices. *)

type structure = {
  states : int array array;
      (** [states.(i)]: the admissible encoded states at position [i]. The
          number of positions is [Array.length states]. *)
  preds : int array array array;
      (** [preds.(i).(s)], for [i >= 1]: the indices into [states.(i - 1)],
          strictly ascending, of every state whose transition into the
          [s]-th state at [i] can be non-zero. Inference visits only these
          pairs, so its cost follows the number of admissible transitions
          rather than the number of pairs of states. The caller must not
          leave out a predecessor whose transition is not [Logspace.zero]:
          nothing checks this, and the transition's probability mass is
          silently dropped from every result. Listing a predecessor whose
          transition is zero is harmless. One array may serve several
          states; nothing writes to it. [preds.(0)] is not read.

          The edges into position [i] are numbered in this order: those of
          state 0 in the order of [preds.(i).(0)], then those of state 1,
          and so on. {!weights}' [trans] and {!xi} use this numbering. *)
}

type weights = {
  init : float array;  (** log prior of each state at position 0 *)
  emit : float array array;
      (** [emit.(i).(s)]: log emission of the [s]-th state at [i] *)
  trans : float array array;
      (** [trans.(i).(e)], for [i >= 1]: log transition probability of the
          [e]-th edge into position [i]; [trans.(i)] has one cell per
          edge *)
}

type t
(** A kernel over one structure: its weights and the buffers of its
    passes. *)

val create : structure -> t
(** Allocates the weights, every one [Logspace.zero] until the caller
    writes it, and the passes' buffers. *)

val weights : t -> weights
(** The kernel's own weights, to refill in place; the passes read them as
    they stand. *)

val viterbi : t -> int array option
(** The maximum a posteriori state path (encoded states), or [None] when
    every path has zero probability (an over-constrained lattice). Uses the
    forward pass's buffer, so {!xi} needs a fresh {!forward_backward}
    afterwards; {!gamma} is left as it was. *)

val forward_backward : t -> float option
(** Runs the forward and backward passes and fills {!gamma}. Returns the
    log-likelihood, or [None] when the lattice admits no path. *)

val gamma : t -> float array array
(** [gamma.(i).(s)]: posterior probability (linear space) of the [s]-th
    admissible state at position [i], as of the last successful
    {!forward_backward}. The next one overwrites it. *)

val xi : t -> int -> float array
(** [xi t i], for [i >= 1] after a successful {!forward_backward}: the
    posterior probability (linear space) of each edge into position [i],
    in edge order, in the first [Array.length (weights t).trans.(i)] cells
    of a buffer that the next call overwrites. An edge into a state whose
    emission is zero reads [0.]. Computed one position at a time, so a
    caller folds each position's cells before asking for the next. *)
