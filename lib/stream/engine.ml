(** The incremental segmentation engine.

    Pages are fed in crawl order: list pages (segment-flagged ones open a
    {e unit}) and the detail pages that follow them. The first
    [head_window] list pages form the {e head} — the template basis every
    unit shares. A unit's batch-equivalent input is

    {v { list_pages = unit page :: (head minus the unit page);
  detail_pages = the detail pages that followed it } v}

    and the engine runs the batch pipeline's own stages
    ({!Tabseg.Pipeline.locate}, [scan_words], [observe_detail],
    [finish_observation], {!Tabseg.Api.solve}) on it, so its outcome is
    {!Tabseg.Api.segment_result}'s by construction; only the schedule
    differs. Each head page gets one index for template induction, kept
    from its arrival; each unit indexes only its own page and induces its
    template over that index and the head's, with the batch path's output
    (induction is order-sensitive, so the induction itself runs per unit).
    Each detail page is read as it arrives, in one scan for its
    separator-free words that makes no token, and matched against the
    unit's extracts, indexed by first word once when the unit starts;
    then its words are dropped. A unit closes (its segmentation runs and
    its records are emitted) as soon as its detail run ends: at the next
    list page, or at [finish]. Units whose pages precede the head seal buffer
    their raw detail pages until the seal — the only buffering in the
    engine, bounded by the head window.

    Memory: live tokens are charged to a {!Budget}; the steady state holds
    the head pages and their indexes, one unit's page, index and
    observation table, and one transient detail page's words, charged as
    the page's token count — never the whole site. *)

open Tabseg_token
open Tabseg_template
open Tabseg_extract
module Api = Tabseg.Api
module Pipeline = Tabseg.Pipeline
module Segmentation = Tabseg.Segmentation

type config = {
  head_window : int;  (** list pages used for template induction (k) *)
  pipeline : Pipeline.config;
  method_ : Api.method_;
  max_live_tokens : int option;  (** hard bound; {!Budget.Exceeded} beyond *)
}

let default_config =
  {
    head_window = 4;
    pipeline = Pipeline.default_config;
    method_ = Api.Probabilistic;
    max_live_tokens = None;
  }

(* Post-seal per-unit state: the located table slot and the observation
   table under construction. *)
type work = {
  w_page : Token.t array;
  w_page_charge : int;  (** tokens charged for w_page (0 if owned by head) *)
  w_located : Slot.t * Segmentation.note list * int;  (** Pipeline.locate *)
  w_other_indices : Matching.detail_index list;
  w_builder : Observation.builder;
}

type unit_state = {
  u_index : int;
  u_html : string;
  u_head_pos : int;  (** position among list pages; in head if < seal size *)
  mutable u_buffered : string list;  (** pre-seal raw details, reversed *)
  mutable u_buffered_charge : int;
  mutable u_count : int;  (** detail pages fed through matching *)
  mutable u_nonblank : bool;  (** some detail page had visible content *)
  mutable u_work : work option;
  mutable u_failed : string option;  (** Invalid_argument carried to close *)
}

type t = {
  cfg : config;
  on_event : Frame.event -> unit;
  budget : Budget.t;
  refine : Refine.t;
  mutable head_rev : Template.page list;  (** pre-seal, reversed *)
  mutable head_charge : int;
  mutable sealed : bool;
  mutable head_pages : Template.page list;  (** in order, set at seal *)
  mutable head_indices : Matching.detail_index list;
  mutable list_seen : int;
  mutable pending : unit_state list;  (** pre-seal closed-run units, rev *)
  mutable current : unit_state option;
  mutable next_unit : int;
  mutable records : int;
  mutable finished : bool;
}

let create ?(config = default_config) ~on_event () =
  if config.head_window < 1 then
    invalid_arg "Stream.Engine.create: head_window must be at least 1";
  {
    cfg = config;
    on_event;
    budget = Budget.create ?cap:config.max_live_tokens ();
    refine = Refine.create ();
    head_rev = [];
    head_charge = 0;
    sealed = false;
    head_pages = [];
    head_indices = [];
    list_seen = 0;
    pending = [];
    current = None;
    next_unit = 0;
    records = 0;
    finished = false;
  }

(* The unit's front half up to its observation table, which is filled as
   detail pages arrive. *)
let start_work t (u : unit_state) =
  try
    let page, page_charge =
      if u.u_head_pos < List.length t.head_pages then
        (List.nth t.head_pages u.u_head_pos, 0)
      else begin
        let tokens = Pipeline.tokenize u.u_html in
        Budget.charge t.budget (Array.length tokens);
        (Template.page tokens, Array.length tokens)
      end
    in
    let others pages = List.filteri (fun i _ -> i <> u.u_head_pos) pages in
    let ((table_slot, _, _) as located) =
      Pipeline.locate ~config:t.cfg.pipeline (page :: others t.head_pages)
    in
    u.u_work <-
      Some
        {
          w_page = Template.tokens page;
          w_page_charge = page_charge;
          w_located = located;
          w_other_indices = others t.head_indices;
          w_builder = Observation.start (Extract.of_slot table_slot);
        }
  with Invalid_argument message -> u.u_failed <- Some message

(* One detail page through the unit's matcher; its words live only for
   the duration of this call, charged as the tokens they were read from. *)
let process_detail t (u : unit_state) html =
  u.u_count <- u.u_count + 1;
  if not (Api.blank html) then u.u_nonblank <- true;
  match (u.u_work, u.u_failed) with
  | Some w, None -> begin
    try
      let words = Pipeline.scan_words html in
      let tokens = words.Tokenizer.token_count in
      Budget.charge t.budget tokens;
      Pipeline.observe_detail w.w_builder words;
      Budget.release t.budget tokens
    with Invalid_argument message -> u.u_failed <- Some message
  end
  | _ -> ()

(* Close a unit: validate exactly as Api.segment_result does, run the
   method's segmenter on the assembled prepared value, emit the records
   then the outcome. *)
let close_unit t (u : unit_state) =
  let outcome =
    if Api.blank u.u_html then Error Api.Blank_list_page
    else if u.u_count = 0 || not u.u_nonblank then Error Api.All_details_lost
    else begin
      match (u.u_failed, u.u_work) with
      | Some message, _ -> Error (Api.Pipeline_failure message)
      | None, None -> Error (Api.Pipeline_failure "stream unit never started")
      | None, Some w -> begin
        try
          let table_slot, notes, template_size = w.w_located in
          let observation =
            Pipeline.finish_observation ~other_lists:w.w_other_indices
              w.w_builder
          in
          Ok
            (Api.solve ~method_:t.cfg.method_
               { Pipeline.page = w.w_page; table_slot; observation; notes;
                 template_size })
        with Invalid_argument message -> Error (Api.Pipeline_failure message)
      end
    end
  in
  (match u.u_work with
  | Some w when w.w_page_charge > 0 -> Budget.release t.budget w.w_page_charge
  | _ -> ());
  (match outcome with
  | Ok result ->
    List.iter
      (fun record ->
        t.records <- t.records + 1;
        t.on_event (Frame.Record { unit_index = u.u_index; record }))
      result.Api.segmentation.Segmentation.records
  | Error _ -> ());
  t.on_event (Frame.Unit_done { unit_index = u.u_index; outcome })

(* Feed the details buffered while the unit waited for the head seal. *)
let replay_buffered t (u : unit_state) =
  let buffered = List.rev u.u_buffered in
  u.u_buffered <- [];
  Budget.release t.budget u.u_buffered_charge;
  u.u_buffered_charge <- 0;
  List.iter (fun html -> process_detail t u html) buffered

(* Seal the head: all pre-seal units can now induce their templates; those
   whose detail runs already ended close immediately, in unit order. *)
let seal t =
  t.sealed <- true;
  t.head_pages <- List.rev t.head_rev;
  t.head_rev <- [];
  t.head_indices <-
    List.map
      (fun page -> Matching.index_detail (Template.tokens page))
      t.head_pages;
  List.iter
    (fun u ->
      start_work t u;
      replay_buffered t u;
      close_unit t u)
    (List.rev t.pending);
  t.pending <- [];
  match t.current with
  | Some u ->
    start_work t u;
    replay_buffered t u
  | None -> ()

(* The arrival of a list page (or finish) ends the open unit's detail
   run. Sealed: close now, in order. Pre-seal: park until the seal. *)
let end_detail_run t =
  match t.current with
  | None -> ()
  | Some u ->
    t.current <- None;
    if t.sealed then close_unit t u
    else t.pending <- u :: t.pending

let new_unit t ~pos ~html =
  let u =
    {
      u_index = t.next_unit;
      u_html = html;
      u_head_pos = pos;
      u_buffered = [];
      u_buffered_charge = 0;
      u_count = 0;
      u_nonblank = false;
      u_work = None;
      u_failed = None;
    }
  in
  t.next_unit <- t.next_unit + 1;
  u

let feed_list_page t ?(segment = false) html =
  if t.finished then invalid_arg "Stream.Engine: stream already finished";
  end_detail_run t;
  let pos = t.list_seen in
  t.list_seen <- pos + 1;
  if not t.sealed then begin
    let tokens = Pipeline.tokenize html in
    Budget.charge t.budget (Array.length tokens);
    t.head_charge <- t.head_charge + Array.length tokens;
    t.head_rev <- Template.page tokens :: t.head_rev;
    (match Refine.observe t.refine (List.rev t.head_rev) with
    | Some progress -> t.on_event (Frame.Template_refined progress)
    | None -> ());
    if segment then t.current <- Some (new_unit t ~pos ~html);
    if t.list_seen = t.cfg.head_window then seal t
  end
  else if segment then begin
    let u = new_unit t ~pos ~html in
    start_work t u;
    t.current <- Some u
  end

let feed_detail_page t html =
  if t.finished then invalid_arg "Stream.Engine: stream already finished";
  match t.current with
  | None -> ()  (* details under a template-only page carry no unit *)
  | Some u ->
    if not t.sealed then begin
      u.u_buffered <- html :: u.u_buffered;
      let charge = Budget.estimate_tokens html in
      u.u_buffered_charge <- u.u_buffered_charge + charge;
      Budget.charge t.budget charge
    end
    else process_detail t u html

let finish t =
  if not t.finished then begin
    t.finished <- true;
    end_detail_run t;
    if not t.sealed then seal t;
    Budget.release t.budget t.head_charge;
    t.head_charge <- 0
  end;
  {
    Frame.units = t.next_unit;
    records = t.records;
    head_pages = List.length t.head_pages;
    live_tokens_hwm = Budget.high_watermark t.budget;
  }
