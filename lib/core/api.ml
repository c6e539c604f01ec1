type method_ =
  | Csp
  | Probabilistic

type result = {
  segmentation : Segmentation.t;
  prepared : Pipeline.prepared;
  diagnostics : Prob_segmenter.diagnostics option;
}

let solve ?csp_config ?prob_config ~method_ prepared =
  match method_ with
  | Csp ->
    let segmentation = Csp_segmenter.segment ?config:csp_config prepared in
    { segmentation; prepared; diagnostics = None }
  | Probabilistic ->
    let segmentation, diagnostics =
      Prob_segmenter.segment ?config:prob_config prepared
    in
    { segmentation; prepared; diagnostics = Some diagnostics }

let segment ?pipeline_config ?template_cache ?csp_config ?prob_config
    ?(transpose_vertical = false) ~method_ input =
  let prepare input =
    Pipeline.prepare ?config:pipeline_config ?template_cache input
  in
  let prepared = prepare input in
  let prepared =
    (* Vertical-layout extension (paper Section 3.2): if the observation
       table shows the column-major signature, transpose every table and
       redo the front half — the standard horizontal machinery then
       applies. *)
    if
      transpose_vertical
      && Vertical.looks_vertical prepared.Pipeline.observation
    then
      prepare
        {
          input with
          Pipeline.list_pages =
            List.map Vertical.transpose_tables input.Pipeline.list_pages;
        }
    else prepared
  in
  solve ?csp_config ?prob_config ~method_ prepared

let method_name = function
  | Csp -> "CSP"
  | Probabilistic -> "Probabilistic"

type input_error =
  | No_list_pages
  | Blank_list_page
  | All_details_lost
  | Pipeline_failure of string

let input_error_message = function
  | No_list_pages -> "no list pages given"
  | Blank_list_page -> "the list page to segment is empty"
  | All_details_lost -> "every detail page is empty or missing"
  | Pipeline_failure message -> "pipeline failure: " ^ message

let rec blank_from html i =
  i >= String.length html
  || Tabseg_html.Lexer.is_space (String.unsafe_get html i) && blank_from html (i + 1)

let blank html = blank_from html 0

let segment_result ?pipeline_config ?template_cache ?csp_config ?prob_config
    ?transpose_vertical ~method_ input =
  match input.Pipeline.list_pages with
  | [] -> Error No_list_pages
  | first :: _ when blank first -> Error Blank_list_page
  | _ ->
    if
      input.Pipeline.detail_pages = []
      || List.for_all blank input.Pipeline.detail_pages
    then Error All_details_lost
    else begin
      match
        segment ?pipeline_config ?template_cache ?csp_config ?prob_config
          ?transpose_vertical ~method_ input
      with
      | result -> Ok result
      | exception Invalid_argument message ->
        Error (Pipeline_failure message)
    end
