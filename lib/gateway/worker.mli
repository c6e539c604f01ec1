(** The worker side of the gateway: a forked child hosting one
    {!Tabseg_serve.Service} and speaking {!Wire} over its end of a
    socketpair.

    The worker is single-threaded and uses plain {e blocking} I/O — the
    master's select loop is the only place nonblocking complexity is
    allowed to live. Between requests it wakes on a short timeout and
    runs {!Tabseg_serve.Service.maintenance}, which is how a
    Writer-role store folds the other workers' offload queues while the
    fleet is idle.

    Exit codes: 0 clean (socket EOF or {!Wire.Shutdown}), 96 protocol
    error on the socket, 98 unexpected exception. *)

val run : socket:Unix.file_descr -> config:Tabseg_serve.Service.config -> unit
(** Serve until EOF or [Shutdown], then release the service (closing
    its store and its writer lock) and return. Only ever called in a
    forked child. *)
