(** Order statistics for benchmark samples.

    Percentiles are nearest-rank: the value at 1-based rank [ceil (p * n)]
    of the sorted sample, so every reported figure is an observed sample.
    A tail percentile is only reported where the sample supports it: at
    least ten samples must lie beyond its rank (the ten-samples-beyond
    rule), otherwise the percentile is lowered until they do. *)

val nearest_rank : int -> float -> int
(** [nearest_rank n p] is the 1-based rank of the [p]-quantile
    ([0 < p <= 1]) in a sample of [n]: [ceil (p * n)], clamped to
    [[1, n]]. *)

val supported_rank : int -> float -> int option
(** [supported_rank n p] is [nearest_rank n p], lowered until at least ten
    samples lie beyond it; [None] when [n <= 10], where no rank has ten
    samples beyond it. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of an unsorted, non-empty sample.
    @raise Invalid_argument on an empty sample. *)

val median : float array -> float
(** [percentile a 0.5]. *)

val tail : float array -> cap:float -> (float * float) option
(** [tail a ~cap] is [Some (p, v)]: [p = rank / n] is the highest
    percentile at or below [cap] that has ten samples beyond it, and [v]
    its value. [None] when the sample has ten or fewer values. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty sample. *)
