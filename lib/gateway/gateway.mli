(** The multi-process serving front-end: a master that shards a request
    stream across [procs] forked worker processes and merges responses
    back in strict submission order — byte-identical to a sequential
    run. This is where serving gets its parallelism and its isolation:
    workers are processes, so they share no heap (no minor-GC
    rendezvous) and one poisoned page set can only take down its own
    worker. The master itself never segments, so an embedding select
    loop (the daemon's) stays responsive while a worker grinds.

    Topology: each worker hosts a full {!Tabseg_serve.Service} over the
    shared store directory — whichever worker grabs the advisory lock
    first is the store's Writer, the rest are Readers whose cache puts
    ride the offload queue ({!Tabseg_store.Store}) back to the Writer.
    Master and workers speak {!Wire} frames over [socketpair]s; the
    master's side runs a nonblocking [select] loop (so a slow worker
    can never deadlock the pipe), the workers stay blocking.

    Partitioning is by {e site-digest affinity}: every request of one
    site lands on the same worker, so a site's warm template cache has
    one home. [procs <= 1] forks one worker.

    Memo: when the workers cache ([service.cache]), the master keeps the
    body of each [Ok] answer, on time or late, under the workers' own
    request key ({!Tabseg_serve.Cache.request_key}), in an LRU bounded
    by the same [capacity_mb] in body bytes. It is the deployment's one
    in-memory memo of results; the workers keep theirs only in the
    store. A later request whose input an earlier one carried is
    answered inside {!submit}, with that body and [cache_hit = true],
    and no worker sees it. A request whose input is still in flight
    {e joins} that frame: it gets no frame, placement or shed check of
    its own, keeps its own id and deadline, counts in [inflight], and
    is answered with the frame's answer (its outcome, [cache_hit =
    true] when [Ok], counted in [gateway.memo_hits]), on time or late.
    When no worker will answer the frame, the copy resolves
    [Worker_lost].

    Supervision: the master detects a dead worker by its socket (EOF /
    EPIPE — a single-threaded worker grinding through a long request
    legitimately ignores heartbeats, so silence alone never kills),
    restarts it with capped exponential backoff, and re-dispatches the
    dead worker's in-flight requests {e at most once}; a request whose
    second worker also dies — or whose worker slot has exhausted its
    restart budget — comes back as a typed [Worker_lost], never as a
    hang. SIGTERM (see {!install_sigterm}) drains: the in-flight batch
    finishes, subsequent batches are refused with [Draining]. *)

type config = {
  procs : int;  (** worker processes; <= 1 forks one *)
  service : Tabseg_serve.Service.config;
      (** the configuration of the service each worker hosts *)
  deadline_s : float option;
      (** per-request deadline, measured from submission at the master;
          an expired request resolves [Deadline_exceeded]; a late reply
          is counted as [gateway.late_responses] and still fills the
          memo and answers the requests joined to it *)
  max_restarts : int;  (** restart budget per worker slot (default 5) *)
  backoff_s : float;  (** initial restart backoff (default 0.05) *)
  backoff_cap_s : float;  (** backoff ceiling (default 2.0) *)
  spill_threshold : int option;
      (** adaptive affinity: when a request's site-affinity worker
          already holds more than this many frames (master-expired
          zombies included), route it to the least-loaded live worker
          instead, counting [gateway.spilled]. Results stay
          byte-identical — only placement (and so tail latency)
          changes. [None] (default): strict affinity, never spill. *)
  site_quota_rps : float option;
      (** per-site admission quota: a token bucket per site refilled at
          this rate (burst = one second of quota, at least 1), so one
          hot site cannot monopolize the fleet. Excess requests are
          refused with [Quota_exceeded]. [None] (default): unlimited. *)
  shed : bool;
      (** deadline-aware shedding (needs [deadline_s]): refuse at
          admission, with [Shed], any request whose predicted
          completion — the chosen worker's service-time EWMA times its
          backlog — already misses the deadline, so worker queues hold
          only winnable work. Default [false]: queue and let the
          deadline expire. *)
  ping_timeout_s : float option;
      (** wedged-worker detection: heartbeat-Ping every live worker and
          SIGKILL + restart (through the capped-backoff path, counting
          [gateway.ping_timeouts]) one that owes a Pong longer than
          this. Workers answer pings behind their queued requests, so
          this must exceed the worst tolerable queue drain. [None]
          (default): only the socket decides life and death. *)
}

val default_config : config

type error =
  | Worker_lost of string
      (** the worker died and the request could not be re-dispatched
          (already re-dispatched once, or the slot exhausted restarts) *)
  | Gateway_overloaded of { inflight : int; capacity : int }
      (** refused at submission: [capacity] requests ([128 * procs])
          were already in flight *)
  | Quota_exceeded of { site : string; retry_after_s : float }
      (** refused at submission: the site's token bucket is empty;
          [retry_after_s] is when one token will have refilled *)
  | Shed of { predicted_s : float; deadline_s : float }
      (** refused at submission: the chosen worker's backlog predicts
          completion in [predicted_s], past the [deadline_s] *)
  | Deadline_exceeded
  | Draining  (** refused: the gateway is shutting down (SIGTERM) *)
  | Service_error of Tabseg_serve.Service.error
      (** the worker answered, with a typed service-level error *)

val error_message : error -> string

type 'a answer = {
  id : string;
  outcome : ('a, error) result;
  cache_hit : bool;
  latency_s : float;
      (** worker-side service latency (a joined copy carries its
          frame's); for a master memo hit, the master's key and lookup
          time; 0 for gateway-level errors *)
}

type response = Tabseg_store.Codec.body answer
(** The result as the body its worker encoded (once per memo entry):
    the master never decodes it, and the daemon forwards it to its
    client unchanged. *)

val result : response -> (Tabseg.Api.result, error) result
(** The outcome with its body decoded, for callers that read the result
    in this process. *)

type t

val create : ?config:config -> unit -> t
(** Fork the workers (one when [procs <= 1]). The master ignores
    SIGPIPE from here on — a dying worker's socket must surface as an
    error code, not a signal. *)

val config : t -> config
val procs : t -> int
val metrics : t -> Tabseg_serve.Metrics.t
(** [gateway.*] counters ([requests_total], [ok], [failed],
    [redispatches], [worker_restarts], [worker_lost], [late_responses],
    [overloaded], [memo_hits], …), the [gateway.memo_bytes] gauge (the
    body bytes the memo holds) and the [gateway.dispatch_seconds] /
    [gateway.turnaround_seconds] histograms (a memo hit or a joined
    copy observes neither). *)

val worker_pids : t -> (int * int) list
(** [(slot, pid)] per live worker, in slot order: a slot whose worker is
    restarting or has failed is left out, and the others keep their
    slot index, the [i] of the [gateway.worker<i>.*] gauges. A test or
    bench crashes a worker by killing one of these pids while it holds
    a request: supervision sees the socket close, exactly as for a real
    crash. *)

val worker_roles : t -> (int * int * string) list
(** [(slot, pid, store role)] per live worker, in slot order as
    {!worker_pids} — the role each worker reported in its Hello
    ("writer", "reader", "none"; "unknown" until the Hello has been
    read). Exactly one worker over a shared store reports "writer". *)

(** {2 Submission — the seam external frontends drive}

    [run_batch] is a barrier: submit everything, block until everything
    resolved. A network frontend (the daemon) wants neither half of
    that — requests arrive one at a time on many connections and each
    completion must flow back the moment it exists. [submit]/[pump]
    expose the master's event loop for exactly that caller: an outer
    select loop folds {!watch_fds} into its own fd sets, bounds its
    timeout by {!next_timer_in}, and gives the gateway one nonblocking
    turn per wakeup via {!pump}. *)

val submit :
  t ->
  on_complete:(response -> unit) ->
  Tabseg_serve.Service.request ->
  unit
(** Admit one request through the degradation ladder (inflight cap,
    per-site quota, the memo, a frame in flight with the same input,
    spill placement, shed check) and dispatch it. [on_complete] fires
    exactly once: synchronously from inside [submit] for refusals and
    memo hits, from a later {!pump}/{!run_batch} turn for dispatched
    work and joined copies. Callbacks must not block; they may call
    [submit] again. *)

val pump : ?max_wait_s:float -> t -> unit
(** One turn of the master event loop: fire timers, move socket bytes,
    deliver completions. Blocks at most [max_wait_s] (default [0.] —
    nonblocking, for callers owning their own select) and never past
    the gateway's own next scheduled event. *)

val watch_fds : t -> Unix.file_descr list * Unix.file_descr list
(** The worker sockets an embedding select loop should watch:
    [(readable set, writable set — only conns with queued output)].
    Recompute after every {!pump}: workers die and restart. *)

val next_timer_in : t -> float
(** Seconds until the gateway next needs a {!pump} regardless of fd
    activity (deadline expiry, restart backoff, heartbeat; [0.] when
    completions are already waiting). *)

val inflight : t -> int
(** Requests admitted and not yet delivered to their [on_complete]. *)

val set_fork_hook : t -> (unit -> Unix.file_descr list) -> unit
(** Descriptors every {e subsequently} forked worker (restarts) must
    close right after the fork — an embedding server's listening
    socket and client connections, which a worker child would
    otherwise hold open past the owner's close. The hook runs in the
    child. *)

val run_batch :
  t -> Tabseg_serve.Service.request list -> response list
(** Dispatch a batch across the workers and block until every request
    resolved (responded, expired, refused or lost). Responses are in
    request order. Implemented as [submit] per request + {!pump} to
    completion. *)

val install_sigterm : t -> unit
(** Route SIGTERM to a drain: the flag flips immediately, the in-flight
    batch completes, later batches get [Draining]. *)

val draining : t -> bool

val shutdown : t -> unit
(** Send every worker [Shutdown], wait briefly, SIGKILL stragglers and
    reap them. Idempotent. *)
