(** Log-space probability arithmetic. Zero probability is represented by
    [neg_infinity]. *)

val zero : float
(** [log 0 = neg_infinity]. *)

val one : float
(** [log 1 = 0.]. *)

val of_prob : float -> float
(** [log p]; [of_prob 0. = zero]. @raise Invalid_argument on negatives. *)

val to_prob : float -> float
(** [exp l]. *)

val add : float -> float -> float
(** [add a b = log (exp a + exp b)], computed stably. *)

val sum : float array -> float
(** Stable log-sum-exp of an array; [zero] on the empty array. *)

val mul : float -> float -> float
(** Product of probabilities = sum of logs ([zero] absorbs). *)

val normalize : float array -> unit
(** In-place: subtract the log-sum so the entries describe a distribution.
    No-op when the sum is [zero]. *)

val is_zero : float -> bool
