type event = {
  stage : string;
  seconds : float;
}

type subscription = int

(* The subscriber list is read on every instrumented stage and written
   only on (un)subscribe, so it lives in an atomic holding an immutable
   association list: readers never lock, writers CAS. *)
let subscribers : (int * (event -> unit)) list Atomic.t = Atomic.make []
let next_id = Atomic.make 0

let rec update f =
  let current = Atomic.get subscribers in
  if not (Atomic.compare_and_set subscribers current (f current)) then
    update f

let subscribe listener =
  let id = Atomic.fetch_and_add next_id 1 in
  update (fun current -> (id, listener) :: current);
  id

let unsubscribe id = update (List.remove_assoc id)

(* Every subscriber sees the event, whichever of them raises; the first
   exception raised, if any, is re-raised once they all ran. *)
let emit stage seconds =
  let event = { stage; seconds } in
  let first = ref None in
  List.iter
    (fun (_, listener) ->
      try listener event
      with e ->
        if !first = None then first := Some (e, Printexc.get_raw_backtrace ()))
    (Atomic.get subscribers);
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !first

(* The event goes out after the stage returned or raised. A raising
   stage keeps its own exception; otherwise a subscriber's propagates. *)
let time ~stage f =
  if Atomic.get subscribers = [] then f ()
  else begin
    let started = Unix.gettimeofday () in
    match f () with
    | value ->
      emit stage (Unix.gettimeofday () -. started);
      value
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try emit stage (Unix.gettimeofday () -. started) with _ -> ());
      Printexc.raise_with_backtrace e bt
  end

let stages =
  [ "crawl"; "pipeline.tokenize"; "pipeline.template"; "pipeline.extract";
    "segment.csp"; "segment.hmm" ]
