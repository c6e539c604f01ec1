(* Workload inputs, all generated before any clock starts: the paper's
   twelve Table 4 sites and seeded samples of the corpus site families.
   Generation is deterministic in its seed, so a run is reproducible from
   the seed on its command line. *)

module Sites = Tabseg_sitegen.Sites
module Family = Tabseg_corpus.Family
module Harness = Tabseg_corpus.Harness

type page = {
  name : string;  (** unique within a run; also the gateway's batching key *)
  input : Tabseg.Pipeline.input;
  truth : string list list;  (** per record: its cell texts *)
}

(* A Table 4 site's list pages, each with the site's other list pages as
   template support and its own detail pages. *)
let paper_site_pages site =
  let generated = Sites.generate site in
  List.mapi
    (fun index (page : Sites.page) ->
      let list_pages, detail_pages = Sites.segmentation_input generated ~page_index:index in
      {
        name = Printf.sprintf "%s/%d" site.Sites.name index;
        input = { Tabseg.Pipeline.list_pages; detail_pages };
        truth = page.Sites.truth;
      })
    generated.Sites.pages

(* The 24 list pages of Table 4. *)
let paper_pages () = List.concat_map paper_site_pages Sites.all

(* One of them by name, generating only its site. *)
let paper_page name =
  match String.rindex_opt name '/' with
  | None -> None
  | Some i -> (
    let site = String.sub name 0 i in
    match List.find_opt (fun s -> s.Sites.name = site) Sites.all with
    | None -> None
    | Some site -> List.find_opt (fun p -> p.name = name) (paper_site_pages site))

(* Corpus site families: the site shapes (schema, layout, row counts,
   contamination) are the fixed sample number [sample] of the family
   sampler, the same in every run, and the run's [seed] re-seeds each
   site's content. A workload's cost then depends on the seed only through
   the data rendered into the pages, not through which shapes happened to
   be drawn, so runs with different seeds measure the same mix of work. *)
let families ?(params = Family.default_params) ~sample ~seed ~sites () =
  Family.sample { params with Family.sites; seed = sample }
  |> List.mapi (fun i spec ->
         { spec with Family.sp_seed = Hashtbl.hash (seed, sample, i) })

(* Page 0 of [sites] families (three sibling list pages as template
   support). [tag] keeps names unique across samples of one run. *)
let corpus_pages ~sample ~seed ~sites ~tag () =
  families ~sample ~seed ~sites ()
  |> Harness.site_inputs
  |> List.map (fun (name, input, truth) ->
         { name = tag ^ "-" ^ name; input; truth })

(* The HMM's cost grows with the candidate pairs times the square of its
   column bound (the most extracts observed on one detail page) — both
   read off the observation table the front half builds. *)
let hmm_cost_proxy page =
  let observation =
    (Tabseg.Pipeline.prepare page.input).Tabseg.Pipeline.observation
  in
  let open Tabseg_extract.Observation in
  let per_detail = Array.make (max 1 observation.num_details) 0 in
  Array.iter
    (fun entry ->
      List.iter (fun j -> per_detail.(j) <- per_detail.(j) + 1) entry.pages)
    observation.entries;
  let k = Array.fold_left max 1 per_detail in
  candidate_count observation * k * k

(* [k] pages spread evenly over the cost distribution of a seeded pool: a
   site sits at each of the quantiles (i + 1/2) / k of predicted HMM cost.
   Every seed thus draws different sites with the same spread of cost, so
   the HMM's heavy tail is always represented but never by chance doubled
   or missing. *)
let stratified_by_hmm_cost ~k pool =
  let ranked =
    List.map (fun page -> (hmm_cost_proxy page, page)) pool
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  let n = Array.length ranked in
  List.init k (fun i ->
      snd ranked.(min (n - 1) ((2 * i + 1) * n / (2 * k))))

(* Sites for the stream engine: [strata] of them per batch, drawn from a
   pool of [pool] families with 1,000-4,000 rows and spread evenly
   over the pool's distribution of records per page times fields (what a
   record costs to stream), so every seed streams the same mix of site
   shapes. *)
let stream_specs ~sample ~seed ~pool ~strata =
  let ranked =
    families ~sample ~seed ~sites:pool
      ~params:{ Family.default_params with Family.min_rows = 1_000; max_rows = 4_000 }
      ()
    |> List.map (fun spec ->
           (spec.Family.sp_rows_per_page * List.length spec.Family.sp_fields, spec))
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  let n = Array.length ranked in
  List.init strata (fun i -> snd ranked.(min (n - 1) ((2 * i + 1) * n / (2 * strata))))
