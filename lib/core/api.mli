(** One-call entry points: from raw HTML pages to a record segmentation.

    {[
      let input =
        { Tabseg.Pipeline.list_pages = [ page1; page2 ];
          detail_pages = details }
      in
      let result = Tabseg.Api.segment ~method_:Tabseg.Api.Csp input in
      List.iter print_record result.segmentation.records
    ]} *)

type method_ =
  | Csp  (** the constraint-satisfaction approach (Section 4) *)
  | Probabilistic  (** the factored-HMM approach (Section 5) *)

type result = {
  segmentation : Segmentation.t;
  prepared : Pipeline.prepared;
      (** the intermediate pipeline state: table slot, observation table *)
  diagnostics : Prob_segmenter.diagnostics option;
      (** EM diagnostics; [None] for the CSP method *)
}

val solve :
  ?csp_config:Csp_segmenter.config ->
  ?prob_config:Prob_segmenter.config ->
  method_:method_ ->
  Pipeline.prepared ->
  result
(** Run the chosen segmentation method on a prepared front half. *)

val segment :
  ?pipeline_config:Pipeline.config ->
  ?template_cache:Pipeline.template_cache ->
  ?csp_config:Csp_segmenter.config ->
  ?prob_config:Prob_segmenter.config ->
  ?transpose_vertical:bool ->
  method_:method_ ->
  Pipeline.input ->
  result
(** Run the full pipeline and the chosen segmentation method. With
    [~transpose_vertical:true] (default false), a vertically laid-out
    table (paper Section 3.2) is detected via {!Vertical.looks_vertical}
    and transposed before segmentation. [~template_cache] is forwarded
    to {!Pipeline.prepare} to amortize template induction. *)

val method_name : method_ -> string

type input_error =
  | No_list_pages  (** [input.list_pages] was empty *)
  | Blank_list_page  (** the page to segment has no content at all *)
  | All_details_lost
      (** no detail page survived the crawl — nothing to anchor records *)
  | Pipeline_failure of string
      (** the pipeline rejected the input for another reason *)

val input_error_message : input_error -> string

val blank : string -> bool
(** [blank html] is [String.trim html = ""], without the copy: true when
    every byte is whitespace ({!Tabseg_html.Lexer.is_space}). It is the
    emptiness check {!segment_result} and the stream engine apply to the
    list page and to each detail page. *)

val segment_result :
  ?pipeline_config:Pipeline.config ->
  ?template_cache:Pipeline.template_cache ->
  ?csp_config:Csp_segmenter.config ->
  ?prob_config:Prob_segmenter.config ->
  ?transpose_vertical:bool ->
  method_:method_ ->
  Pipeline.input ->
  (result, input_error) Stdlib.result
(** Non-raising {!segment}: unusable inputs — the degraded shapes a
    resilient crawl can produce — come back as typed errors instead of
    [Invalid_argument]. Usable inputs go through the exact same pipeline
    as {!segment}. *)
