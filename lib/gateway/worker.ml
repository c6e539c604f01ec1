module Service = Tabseg_serve.Service
module Store = Tabseg_store.Store

(* How long the worker sleeps in [select] before running a maintenance
   tick. Short enough that a Writer folds reader offload queues with
   interactive latency; long enough to cost nothing. *)
let maintenance_interval_s = 0.2

let store_role service =
  match Service.store_stats service with
  | Some stats -> (
    match stats.Store.role with
    | Store.Writer -> "writer"
    | Store.Reader -> "reader")
  | None -> "none"

let run ~socket ~config =
  let service = Service.create ~config () in
  Wire.write_message socket
    (Wire.Hello { pid = Unix.getpid (); role = store_role service });
  let stop = ref false in
  let handle = function
    | Wire.Request { seq; request } ->
      let reply = Service.reply_one service request in
      Wire.write_message socket (Wire.Response { seq; reply })
    | Wire.Ping token -> Wire.write_message socket (Wire.Pong token)
    | Wire.Shutdown -> stop := true
    | Wire.Hello _ | Wire.Response _ | Wire.Pong _ ->
      (* A master never sends these; a peer that does is broken. *)
      Unix._exit 96
  in
  let rec loop () =
    if not !stop then begin
      match Unix.select [ socket ] [] [] maintenance_interval_s with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ ->
        Service.maintenance service;
        loop ()
      | _ -> (
        match Wire.read_message socket with
        | Ok message ->
          handle message;
          loop ()
        | Error `Eof -> ()
        | Error (`Decode _) ->
          Service.shutdown service;
          Unix._exit 96)
    end
  in
  (try loop ()
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     (* The master vanished mid-reply; shut down quietly. *)
     ());
  Service.shutdown service
