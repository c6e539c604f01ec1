open Tabseg_token
open Tabseg_template
open Tabseg_extract

type input = {
  list_pages : string list;
  detail_pages : string list;
}

type config = {
  min_template_tokens : int;
  min_slot_cover : float;
}

let default_config = { min_template_tokens = 10; min_slot_cover = 0.8 }

type template_cache = {
  find_template : key:string -> Template.t option;
  store_template : key:string -> Template.t -> unit;
}

type prepared = {
  page : Token.t array;
  table_slot : Slot.t;
  observation : Observation.t;
  notes : Segmentation.note list;
  template_size : int;
}

let log = Logs.Src.create "tabseg.pipeline" ~doc:"Segmentation front half"

module Log = (val Logs.src_log log)

(* Content address of a list-page set. Induction is sensitive to page
   order (the template's keys follow the first page), so the key is over
   the ordered, length-framed pages — two different orderings of the
   same pages are two different templates. *)
let page_set_key list_pages =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun page ->
               Printf.sprintf "%d:%s" (String.length page) page)
             list_pages)))

let tokenize html =
  Instrument.time ~stage:"pipeline.tokenize" (fun () -> Tokenizer.tokenize html)

let locate ?(config = default_config) ?cached pages =
  let indexed = List.hd pages in
  let page = Template.tokens indexed in
  (* The whole page stands in when the induced template is unusable
     (paper notes a/b). *)
  let fallback template_size =
    ( Slot.whole_page page,
      [ Segmentation.Template_problem; Segmentation.Entire_page_used ],
      template_size )
  in
  let ((table_slot, _, template_size) as located) =
    if List.length pages < 2 then fallback 0
    else begin
      let induce () =
        Instrument.time ~stage:"pipeline.template" (fun () ->
            Template.induce_pages pages)
      in
      let template =
        match cached with
        | None -> induce ()
        | Some (cache, key) -> (
          match cache.find_template ~key with
          | Some template -> template
          | None ->
            let template = induce () in
            cache.store_template ~key template;
            template)
      in
      let template_size = Template.size template in
      if template_size < config.min_template_tokens then fallback template_size
      else begin
        let slots = Template.page_slots template indexed in
        let total_words =
          List.fold_left (fun acc slot -> acc + Slot.word_count slot) 0 slots
        in
        match Slot.table_slot slots with
        | None -> fallback template_size
        | Some slot ->
          let cover =
            if total_words = 0 then 0.
            else
              float_of_int (Slot.word_count slot) /. float_of_int total_words
          in
          if cover < config.min_slot_cover then fallback template_size
          else (slot, [], template_size)
      end
    end
  in
  Log.debug (fun m ->
      m "template %d tokens, table slot %a" template_size Slot.pp table_slot);
  located

let scan_words html =
  Instrument.time ~stage:"pipeline.tokenize" (fun () ->
      Tokenizer.scan_words html)

let observe_detail builder words =
  Instrument.time ~stage:"pipeline.extract" (fun () ->
      Observation.add_detail builder words)

let finish_observation ~other_lists builder =
  Instrument.time ~stage:"pipeline.extract" (fun () ->
      Observation.finish ~other_lists builder)

let prepare ?(config = default_config) ?template_cache input =
  let pages =
    match input.list_pages with
    | [] -> invalid_arg "Pipeline.prepare: no list pages"
    | list_pages -> List.map tokenize list_pages
  in
  let cached =
    Option.map
      (fun cache -> (cache, page_set_key input.list_pages))
      template_cache
  in
  let table_slot, notes, template_size =
    locate ~config ?cached (List.map Template.page pages)
  in
  let builder = Observation.start (Extract.of_slot table_slot) in
  List.iter
    (fun html -> observe_detail builder (scan_words html))
    input.detail_pages;
  let observation =
    finish_observation
      ~other_lists:(List.map Matching.index_detail (List.tl pages))
      builder
  in
  { page = List.hd pages; table_slot; observation; notes; template_size }
