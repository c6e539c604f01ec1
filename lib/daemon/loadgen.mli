(** The sustained-load harness: N concurrent connections driven from
    one nonblocking select loop (the multiplexed counterpart of the
    blocking {!Client}), in open- or closed-loop mode, with seeded
    Zipf site skew.

    Open loop models independent arrivals: requests are scheduled at a
    fixed rate regardless of completions, and a request's latency is
    measured from its {e scheduled} arrival — local queueing while the
    pipelining window is full counts against the server, so the
    numbers are free of coordinated omission. Closed loop models a
    fixed fleet of callers each keeping [pipeline] requests
    outstanding — the classic saturation throughput measurement.

    Backpressure loop (the client half of the gateway's degradation
    ladder): with [retry_quota] on, a [Quota_exceeded {retry_after_s}]
    reply re-schedules the request no sooner than that hint — the hint
    is a floor, with exponential backoff and seeded jitter stacked on
    repeated rejections so concurrent retriers don't stampede the one
    refilled token — up to [max_retries] attempts; a retried request's
    latency keeps its {e original} arrival time. Rejections that exhaust the budget
    count as [abandoned]; requests that eventually succeed after at
    least one rejection count as [recovered]. *)

type mode =
  | Open_loop of { rate : float }  (** arrivals per second, all conns *)
  | Closed_loop of { pipeline : int }
      (** outstanding per connection (clamped to the server's window) *)

type config = {
  address : Protocol.address;
  connections : int;
  mode : mode;
  duration_s : float;  (** the arrival window; draining runs after *)
  drain_timeout_s : float;
      (** extra time allowed for outstanding work and scheduled
          retries after arrivals stop (default 10 s) *)
  seed : int;  (** site-skew RNG seed — same seed, same site sequence *)
  auth_token : string option;
  client : string;  (** name sent in each Hello *)
  sites : (string * Tabseg.Pipeline.input) array;
      (** the site universe; at least one *)
  zipf_exponent : float;
      (** skew across [sites]: 0 = uniform, paper-style traffic ≈ 1 *)
  retry_quota : bool;  (** honour [retry_after_s] (default behaviour off) *)
  max_retries : int;  (** retry budget per request (default 3) *)
  expected : (string * string) list;
      (** site → expected rendering ({!Tabseg.Segmentation.pp}); every
          Ok reply for a listed site is rendered and compared, counting
          [mismatches] — the byte-identity check at load *)
}

val default_config : config
(** 4 connections, closed loop ×1, 2 s, uniform over an empty site
    array (callers must supply [sites] and [address]). *)

type stats = {
  offered : int;  (** requests scheduled (retries not re-counted) *)
  completed : int;  (** requests with a final outcome *)
  ok : int;
  failed : int;
  errors : (string * int) list;  (** final error tallies by label *)
  retried : int;  (** quota-retry attempts performed *)
  recovered : int;  (** ok after ≥ 1 quota rejection *)
  abandoned : int;  (** quota-rejected with the retry budget spent *)
  mismatches : int;  (** Ok replies that failed the byte-identity check *)
  wall_s : float;  (** first submit to last completion *)
  rps : float;  (** completed / wall *)
  goodput_rps : float;  (** ok / wall *)
  mean_ms : float;  (** over ok latencies *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

val run : config -> (stats, string) result
(** Connect, handshake, drive, drain, close. [Error] on connect or
    handshake failure (bad token, server full) and on protocol
    violations; load-level refusals ([Quota_exceeded], [Shed], …) are
    data, not errors. *)
