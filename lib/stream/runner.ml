(** Drive a source through the engine, and fold the event stream back into
    batch results — the proof obligation that streaming changed {e when}
    work happens, never {e what} comes out. *)

module Api = Tabseg.Api
module Pipeline = Tabseg.Pipeline

let run ?config ~on_event source =
  let engine = Engine.create ?config ~on_event () in
  let rec loop () =
    match source () with
    | None -> Engine.finish engine
    | Some (Source.List_page { html; segment }) ->
      Engine.feed_list_page engine ~segment html;
      loop ()
    | Some (Source.Detail_page html) ->
      Engine.feed_detail_page engine html;
      loop ()
  in
  loop ()

type folded = {
  outcomes : (Api.result, Api.input_error) result list;
      (** per-unit outcomes, in unit order *)
  summary : Frame.summary;
}

(* Streaming as a batch call: run the engine, keep only the terminal
   per-unit outcomes. *)
let fold ?config ?(on_event = fun _ -> ()) source =
  let outcomes = ref [] in
  let handle event =
    (match event with
    | Frame.Unit_done { outcome; _ } -> outcomes := outcome :: !outcomes
    | Frame.Record _ | Frame.Template_refined _ -> ());
    on_event event
  in
  let summary = run ?config ~on_event:handle source in
  { outcomes = List.rev !outcomes; summary }

(* The batch-equivalent input of every unit in [pages]: the unit's page
   first, then the head window minus that page, with the detail pages that
   followed it. This is the contract the engine reproduces incrementally. *)
let unit_inputs ~head_window pages =
  let list_pages = ref [] and units = ref [] and current = ref None in
  let close_run () =
    match !current with
    | None -> ()
    | Some (pos, html, details) ->
      units := (pos, html, List.rev !details) :: !units;
      current := None
  in
  List.iter
    (function
      | Source.List_page { html; segment } ->
        close_run ();
        let pos = List.length !list_pages in
        list_pages := !list_pages @ [ html ];
        if segment then current := Some (pos, html, ref [])
      | Source.Detail_page html -> (
        match !current with
        | None -> ()
        | Some (_, _, details) -> details := html :: !details))
    pages;
  close_run ();
  let head =
    List.filteri (fun i _ -> i < head_window) !list_pages
  in
  List.rev_map
    (fun (pos, html, details) ->
      {
        Pipeline.list_pages =
          html :: List.filteri (fun i _ -> i <> pos) head;
        detail_pages = details;
      })
    !units

(* The reference the stream must match: the plain batch API over each
   unit's derived input. *)
let batch_reference ?(config = Engine.default_config) pages =
  List.map
    (fun input ->
      Api.segment_result ~pipeline_config:config.Engine.pipeline
        ~method_:config.Engine.method_ input)
    (unit_inputs ~head_window:config.Engine.head_window pages)

(* Content digest of a unit outcome, for byte-identity checks across the
   stream/batch pair and across processes. *)
let outcome_digest (outcome : (Api.result, Api.input_error) result) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string outcome []
       [@tabseg.allow "raw-marshal"
         "digest input only — never decoded, never crosses a trust \
          boundary"]))

(* Stream a single batch input: one unit, records through [on_record],
   terminal outcome identical to Api.segment_result. *)
let stream_input ?(config = Engine.default_config) ~on_record
    (input : Pipeline.input) =
  let head_window = max 1 (List.length input.Pipeline.list_pages) in
  let config = { config with Engine.head_window } in
  let outcome = ref None in
  let on_event = function
    | Frame.Record { record; _ } -> on_record record
    | Frame.Unit_done { outcome = terminal; _ } -> outcome := Some terminal
    | Frame.Template_refined _ -> ()
  in
  let summary = run ~config ~on_event (Source.of_input input) in
  let outcome =
    match !outcome with
    | Some outcome -> outcome
    | None -> Error Api.No_list_pages
  in
  (outcome, summary)
