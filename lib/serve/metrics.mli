(** A registry of named counters, gauges and latency histograms.

    All operations are safe to call concurrently from several domains;
    the hot paths ([incr], [observe], [set]) take one short mutex
    section each. Handles are cheap to look up and idempotent: asking a
    registry twice for the same name returns the same metric.

    Histograms are log-bucketed (five buckets per decade from 10 µs to
    100 s) with exact count/sum/min/max, so percentiles are resolved to
    the upper bound of their bucket — the usual service-metrics
    trade-off of bounded memory for ~25% relative quantile error. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Counters — monotone event counts} *)

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
(** [by] must be non-negative; counters never decrease. *)

val counter_value : counter -> int

(** {1 Gauges — last-write-wins levels} *)

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms — latency distributions} *)

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** Record one duration in seconds; negative samples are clamped to 0. *)

type summary = {
  count : int;
  sum : float;
  min : float;  (** 0 when empty *)
  max : float;  (** 0 when empty *)
  p50 : float;
  p95 : float;
  p99 : float;
}

val summary : histogram -> summary

val mean : summary -> float
(** [sum / count]; 0 when empty. The seed the gateway's load-shedding
    EWMA starts from before a worker has answered anything. *)

(** {1 Dumping} *)

val values : t -> (string * float) list
(** Every counter and gauge with its current value, a counter's as a
    float, sorted by name. Histograms are left out. *)

val report : t -> string
(** Human-readable text report, metrics sorted by name. *)

val to_json : t -> string
(** The same snapshot as a JSON object: [{"counters": {...},
    "gauges": {...}, "histograms": {name: {count, sum, min, max, p50,
    p95, p99}}}]. Deterministic key order (sorted by name). *)

val json_string : string -> string
(** RFC 8259 escaping of one string, quotes included: control
    characters, the double quote and the backslash always come out
    escaped, so arbitrary (hostile) metric names cannot break the JSON
    framing. Exposed for tests and for callers embedding metric names
    in their own JSON. *)

(** {1 Stage bridge} *)

val attach_stages : t -> Tabseg.Instrument.subscription
(** Subscribe this registry to the core {!Tabseg.Instrument} bus: every
    pipeline/segmenter/crawl stage event becomes an observation in the
    histogram named ["stage.<stage>"]. Detach with
    {!Tabseg.Instrument.unsubscribe} when the registry's owner shuts
    down. *)
