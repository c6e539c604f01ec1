(* Bit-identity golden test for the CSP path: for every Table 4 list page
   and for 48 stream-style corpus units, the induced template keys, the
   pseudo-boolean problems [Csp_segmenter.encode] builds (strict and
   relaxed, under the default and the coverage configuration) and the
   segmentation [Api.segment ~method_:Csp] returns must keep the digests
   recorded here. The digests were produced by the per-page template
   induction (a key-position table per page and induction) and the
   hash-table CSP encoder (one full encoding per mode), so they pin any
   faster implementation to the same keys, rows, row order and records.

   Two more outputs walk WSAT over soft rows, which the encodings alone do
   not pin: the segmentation under the Coverage relaxation (a weight-1
   soft exactly-one per extract) of every input, and the column
   assignment [Csp_columns] solves (soft similarity rows) on four Table 4
   segmentations. Their digests were produced by the list-based solver
   that read one record per row, so they pin the flat kernel's seeded
   walk to the same flips. *)

open Tabseg_token
open Tabseg_template
open Tabseg_extract
open Tabseg_csp
module Csp = Tabseg.Csp_segmenter
module Pipeline = Tabseg.Pipeline
module Segmentation = Tabseg.Segmentation
module Sites = Tabseg_sitegen.Sites
module Family = Tabseg_corpus.Family

(* The 24 list pages of Table 4, each with the site's other list pages. *)
let table4 () =
  List.concat_map
    (fun site ->
      let generated = Sites.generate site in
      List.mapi
        (fun page_index _ ->
          let list_pages, detail_pages =
            Sites.segmentation_input generated ~page_index
          in
          ( Printf.sprintf "%s/%d" site.Sites.name page_index,
            { Pipeline.list_pages; detail_pages } ))
        generated.Sites.pages)
    Sites.all

(* Stream-style units, as the stream engine builds them: the unit's page,
   then the site's first [head_window] list pages without it. Units 0 and
   3 are head pages, units 4 and 7 follow the head. *)
let head_window = 4
let unit_positions = [ 0; 3; 4; 7 ]

let corpus_units () =
  let specs =
    Family.sample
      { Family.default_params with
        Family.sites = 12; seed = 15; min_rows = 200; max_rows = 800 }
  in
  List.concat_map
    (fun spec ->
      let next = Family.page_source ~max_pages:8 spec in
      let pages = List.filter_map (fun _ -> next ()) (List.init 8 Fun.id) in
      let head =
        List.filteri (fun i _ -> i < head_window) pages
        |> List.map (fun page -> page.Family.list_html)
      in
      List.filter_map
        (fun position ->
          List.nth_opt pages position
          |> Option.map (fun (page : Family.page) ->
                 ( Printf.sprintf "%s/%d" spec.Family.sp_name position,
                   {
                     Pipeline.list_pages =
                       page.Family.list_html
                       :: List.filteri (fun i _ -> i <> position) head;
                     detail_pages = page.Family.detail_htmls;
                   } )))
        unit_positions)
    specs

let inputs = lazy (table4 () @ corpus_units ())

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let template_digest (input : Pipeline.input) =
  Template.induce (List.map Tokenizer.tokenize input.Pipeline.list_pages)
  |> Template.keys |> String.concat "\n" |> digest

let configs = [ Csp.default_config; Csp.coverage_config ]

let encodings_digest (input : Pipeline.input) =
  let observation = (Pipeline.prepare input).Pipeline.observation in
  let b = Buffer.create 65536 in
  List.iter
    (fun config ->
      List.iter
        (fun mode ->
          let encoded = Csp.encode ~config mode observation in
          Buffer.add_string b (Format.asprintf "%a" Pb.pp encoded.Csp.problem);
          Array.iter
            (fun (i, j) -> Printf.bprintf b "%d:%d " i j)
            encoded.Csp.variables;
          Buffer.add_char b '\n')
        [ Csp.Strict; Csp.Relaxed ])
    configs;
  digest (Buffer.contents b)

let segmentation_text (segmentation : Segmentation.t) =
  let b = Buffer.create 4096 in
  let extracts es =
    String.concat ","
      (List.map
         (fun (e : Extract.t) -> Printf.sprintf "%d:%s" e.Extract.id e.Extract.text)
         es)
  in
  List.iter
    (fun (r : Segmentation.record) ->
      Printf.bprintf b "r%d [%s]\n" r.Segmentation.number
        (extracts r.Segmentation.extracts))
    segmentation.Segmentation.records;
  Printf.bprintf b "unassigned [%s]\nnotes %s\n"
    (extracts segmentation.Segmentation.unassigned)
    (String.of_seq
       (Seq.map Segmentation.note_letter
          (List.to_seq segmentation.Segmentation.notes)));
  Buffer.contents b

let segmentation_digest (input : Pipeline.input) =
  (Tabseg.Api.segment ~method_:Tabseg.Api.Csp input).Tabseg.Api.segmentation
  |> segmentation_text |> digest

let coverage_digest (input : Pipeline.input) =
  (Tabseg.Api.segment ~csp_config:Csp.coverage_config ~method_:Tabseg.Api.Csp
     input)
    .Tabseg.Api.segmentation
  |> segmentation_text |> digest

let columns_digest (input : Pipeline.input) =
  let segmentation =
    (Tabseg.Api.segment ~method_:Tabseg.Api.Csp input).Tabseg.Api.segmentation
    |> Tabseg.Csp_columns.assign_columns
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Segmentation.record) ->
      Printf.bprintf b "r%d" r.Segmentation.number;
      List.iter
        (fun (id, column) -> Printf.bprintf b " %d:%d" id column)
        r.Segmentation.columns;
      Buffer.add_char b '\n')
    segmentation.Segmentation.records;
  digest (segmentation_text segmentation ^ Buffer.contents b)

(* (input, template keys, encodings, segmentation) *)
let expected =
  [
    ("AmazonBooks/0", "0a52379db775", "4af16e296d0c", "e4e921a72fed");
    ("AmazonBooks/1", "0a52379db775", "2438581ffad4", "09e06cb34554");
    ("BNBooks/0", "5abf34a3127a", "c318e3cf649b", "e2a14bbb50e6");
    ("BNBooks/1", "16317e77ff7d", "e417ac4932bd", "419dbdd445c5");
    ("AlleghenyCounty/0", "76eb393dc436", "3d6ca60c6c9a", "6b5e13088524");
    ("AlleghenyCounty/1", "76eb393dc436", "4a11b1d9b347", "d893e7a9bdf8");
    ("ButlerCounty/0", "76eb393dc436", "aa5318538f3c", "943d3abe485b");
    ("ButlerCounty/1", "76eb393dc436", "6dc184595ed0", "836b681f5980");
    ("LeeCounty/0", "76eb393dc436", "600bade838e3", "c44f5b9439c1");
    ("LeeCounty/1", "76eb393dc436", "5b0ea42f1031", "1bee7071a464");
    ("MichiganCorrections/0", "39dea95bf066", "01aee3bb3a46", "6da9af386431");
    ("MichiganCorrections/1", "39dea95bf066", "65b46b3e58b0", "725f44efcdaa");
    ("MinnesotaCorrections/0", "ba058f717757", "9c5a08af2828", "0d209e17c438");
    ("MinnesotaCorrections/1", "ba058f717757", "2e6545395569", "acafe1195361");
    ("OhioCorrections/0", "6a96b6afd6e8", "7656ee829706", "d6b6aad013e3");
    ("OhioCorrections/1", "6a96b6afd6e8", "d83c6ad98c33", "700aa07139a3");
    ("Canada411/0", "3cd4638d8f42", "58c0a55e260e", "6fd49cea0486");
    ("Canada411/1", "3cd4638d8f42", "903165911700", "9af2ef319611");
    ("SprintCanada/0", "3cd4638d8f42", "5d7b185f6080", "12a7fe37fd90");
    ("SprintCanada/1", "3cd4638d8f42", "40a94a2cf4f1", "e017c78c56cb");
    ("YahooPeople/0", "e6971bfc1cb6", "db9e95ac6a7c", "f426eec055b7");
    ("YahooPeople/1", "e6971bfc1cb6", "950e3c893a2b", "d69225978e47");
    ("SuperPages/0", "e6971bfc1cb6", "765693e4355c", "ef85c977a0ca");
    ("SuperPages/1", "e6971bfc1cb6", "1eb1b2daf560", "136b42afd566");
    ("corpus00000/0", "a2de1785210e", "6fdc22627308", "ad4cfb429292");
    ("corpus00000/3", "a2de1785210e", "d18f9a3cf3d2", "33952d8055ff");
    ("corpus00000/4", "a2de1785210e", "63e44b5d92c0", "a0d5730803a6");
    ("corpus00000/7", "a2de1785210e", "9654eda348cb", "f3c7265b1fef");
    ("corpus00001/0", "0d0a713003a6", "bc96061aafcb", "80ba29deae06");
    ("corpus00001/3", "0d0a713003a6", "e8788cec997f", "97f172434b58");
    ("corpus00001/4", "0d0a713003a6", "31334542dfc9", "d1306302b67a");
    ("corpus00001/7", "0d0a713003a6", "a528f5a577d5", "fb18ffa23a76");
    ("corpus00002/0", "3cd4638d8f42", "9dcc5517e12d", "a3ce59b0056c");
    ("corpus00002/3", "3cd4638d8f42", "e92779b71592", "b043e5fa1df2");
    ("corpus00002/4", "3cd4638d8f42", "2785c1c81e0a", "52fef505f64f");
    ("corpus00002/7", "3cd4638d8f42", "cf951f289520", "77ca9d9a2df5");
    ("corpus00003/0", "58580cd737d7", "c7d83beab3e0", "4a44e673b7e8");
    ("corpus00003/3", "58580cd737d7", "2451fb9a70db", "af3f74f41c7b");
    ("corpus00003/4", "58580cd737d7", "e596031d4732", "72d038220984");
    ("corpus00003/7", "58580cd737d7", "5ec295f338bd", "084ccfc5e165");
    ("corpus00004/0", "3cd4638d8f42", "40bc4a6338aa", "2a97fb733a53");
    ("corpus00004/3", "3cd4638d8f42", "3201a72012b0", "09b2a166c7ee");
    ("corpus00004/4", "3cd4638d8f42", "226794f470b7", "909b61bba7e3");
    ("corpus00004/7", "3cd4638d8f42", "11445e33ab2c", "7dbe55b1212d");
    ("corpus00005/0", "85f5cbf5cee9", "0be7548bb58b", "2de35789c098");
    ("corpus00005/3", "85f5cbf5cee9", "3953f3dccdc8", "4ade5fb30e12");
    ("corpus00005/4", "85f5cbf5cee9", "d9c8c784fdb1", "c10a1e5cc9b0");
    ("corpus00005/7", "85f5cbf5cee9", "6d1764e365fd", "19de0acc0668");
    ("corpus00006/0", "3cd4638d8f42", "c786382097d1", "2fd7453a2609");
    ("corpus00006/3", "3cd4638d8f42", "7f07bfed0de2", "400e191f501b");
    ("corpus00006/4", "3cd4638d8f42", "7f07bfed0de2", "845eebde978a");
    ("corpus00006/7", "3cd4638d8f42", "7f07bfed0de2", "3522475fc5d2");
    ("corpus00007/0", "2434998311a0", "767ea212be0e", "ce699c75236b");
    ("corpus00007/3", "2434998311a0", "05409c17b156", "75a5df6d01b3");
    ("corpus00007/4", "2434998311a0", "90c372a648a8", "dc964a3fb2a0");
    ("corpus00007/7", "2434998311a0", "1a00917a6774", "3f29897e0148");
    ("corpus00008/0", "8c1eb55035e3", "5a464cd94bba", "10dfc8765743");
    ("corpus00008/3", "8c1eb55035e3", "f732a34f58c4", "85279d0d9d57");
    ("corpus00008/4", "8c1eb55035e3", "93eb85e61e4e", "20b8ffb00fa1");
    ("corpus00008/7", "8c1eb55035e3", "4e36e312aa2a", "017c4fd18b7f");
    ("corpus00009/0", "3cd4638d8f42", "f3bdb354d2af", "6ffe3ee4c3cd");
    ("corpus00009/3", "3cd4638d8f42", "d76651d836f0", "855f43ef5afd");
    ("corpus00009/4", "3cd4638d8f42", "e153ef408746", "2127f6a7b365");
    ("corpus00009/7", "3cd4638d8f42", "e8f9fbc18617", "db1411026e0d");
    ("corpus00010/0", "6802c35e9eee", "580a0cab9b3f", "39ab26ac8ddf");
    ("corpus00010/3", "6802c35e9eee", "2914f1d77087", "168706f3578d");
    ("corpus00010/4", "6802c35e9eee", "0c967d8ad81c", "33fc03118916");
    ("corpus00010/7", "6802c35e9eee", "690d82cce237", "d7075e9042d7");
    ("corpus00011/0", "3cd4638d8f42", "7894e7e6d26a", "7a83fec66c91");
    ("corpus00011/3", "3cd4638d8f42", "8a50b5393f47", "04b9bf94d397");
    ("corpus00011/4", "3cd4638d8f42", "36bb27326477", "9a5bbe68d153");
    ("corpus00011/7", "3cd4638d8f42", "96e4317ca560", "24b94a0be77d")
  ]

let check ~what ~field compute () =
  List.iter
    (fun (name, input) ->
      match List.find_opt (fun (n, _, _, _) -> n = name) expected with
      | None -> Alcotest.failf "no golden digest for %s" name
      | Some entry ->
        Alcotest.(check string) (name ^ " " ^ what) (field entry) (compute input))
    (Lazy.force inputs)

(* Every input named in [expected] keeps its digest. *)
let check_pinned ~what expected compute () =
  let inputs = Lazy.force inputs in
  List.iter
    (fun (name, digest) ->
      match List.assoc_opt name inputs with
      | None -> Alcotest.failf "no input named %s" name
      | Some input ->
        Alcotest.(check string) (name ^ " " ^ what) digest (compute input))
    expected

(* (input, segmentation under the Coverage relaxation) *)
let coverage_expected =
  [
    ("AmazonBooks/0", "6f7827635a1e");
    ("AmazonBooks/1", "4415d142e0da");
    ("BNBooks/0", "8813da0af223");
    ("BNBooks/1", "1b8c6940243e");
    ("AlleghenyCounty/0", "6b5e13088524");
    ("AlleghenyCounty/1", "d893e7a9bdf8");
    ("ButlerCounty/0", "943d3abe485b");
    ("ButlerCounty/1", "836b681f5980");
    ("LeeCounty/0", "c44f5b9439c1");
    ("LeeCounty/1", "1bee7071a464");
    ("MichiganCorrections/0", "6da9af386431");
    ("MichiganCorrections/1", "283ff39f892b");
    ("MinnesotaCorrections/0", "3aa1c9978566");
    ("MinnesotaCorrections/1", "bf2354733d06");
    ("OhioCorrections/0", "d6b6aad013e3");
    ("OhioCorrections/1", "700aa07139a3");
    ("Canada411/0", "6fd49cea0486");
    ("Canada411/1", "3aa9cb4392c1");
    ("SprintCanada/0", "12a7fe37fd90");
    ("SprintCanada/1", "e017c78c56cb");
    ("YahooPeople/0", "74a6c1e61eec");
    ("YahooPeople/1", "d69225978e47");
    ("SuperPages/0", "ef85c977a0ca");
    ("SuperPages/1", "136b42afd566");
    ("corpus00000/0", "ad4cfb429292");
    ("corpus00000/3", "33952d8055ff");
    ("corpus00000/4", "a0d5730803a6");
    ("corpus00000/7", "f3c7265b1fef");
    ("corpus00001/0", "f42efa4193d0");
    ("corpus00001/3", "97f172434b58");
    ("corpus00001/4", "e1e9a2c954b7");
    ("corpus00001/7", "1ed0677a5895");
    ("corpus00002/0", "a3ce59b0056c");
    ("corpus00002/3", "b043e5fa1df2");
    ("corpus00002/4", "52fef505f64f");
    ("corpus00002/7", "77ca9d9a2df5");
    ("corpus00003/0", "bbf8611b8b9b");
    ("corpus00003/3", "4f4d2b036012");
    ("corpus00003/4", "72d038220984");
    ("corpus00003/7", "084ccfc5e165");
    ("corpus00004/0", "606d5eb79584");
    ("corpus00004/3", "274dc37fbf06");
    ("corpus00004/4", "6ddec9f07a0e");
    ("corpus00004/7", "7dbe55b1212d");
    ("corpus00005/0", "2de35789c098");
    ("corpus00005/3", "4ade5fb30e12");
    ("corpus00005/4", "15602fa6d9ed");
    ("corpus00005/7", "19de0acc0668");
    ("corpus00006/0", "f15a1d89f5a9");
    ("corpus00006/3", "400e191f501b");
    ("corpus00006/4", "845eebde978a");
    ("corpus00006/7", "3522475fc5d2");
    ("corpus00007/0", "ce699c75236b");
    ("corpus00007/3", "75a5df6d01b3");
    ("corpus00007/4", "dc964a3fb2a0");
    ("corpus00007/7", "3f29897e0148");
    ("corpus00008/0", "10dfc8765743");
    ("corpus00008/3", "85279d0d9d57");
    ("corpus00008/4", "20b8ffb00fa1");
    ("corpus00008/7", "017c4fd18b7f");
    ("corpus00009/0", "6ffe3ee4c3cd");
    ("corpus00009/3", "4f198c285ed7");
    ("corpus00009/4", "2127f6a7b365");
    ("corpus00009/7", "db1411026e0d");
    ("corpus00010/0", "39ab26ac8ddf");
    ("corpus00010/3", "168706f3578d");
    ("corpus00010/4", "57962cfd796c");
    ("corpus00010/7", "3ef8730afcbf");
    ("corpus00011/0", "aa3b8aadc171");
    ("corpus00011/3", "e82dbc5c7ae6");
    ("corpus00011/4", "9a5bbe68d153");
    ("corpus00011/7", "27806d85555f")
  ]

(* (input, CSP segmentation with [Csp_columns.assign_columns]'s columns) *)
let columns_expected =
  [
    ("AmazonBooks/0", "ecbf99ba8e69");
    ("LeeCounty/0", "88d00d80b95f");
    ("MichiganCorrections/0", "7cffa621f2d4");
    ("Canada411/0", "9d394e10dda4")
  ]

let () =
  Alcotest.run "tabseg_csp_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "template keys pinned" `Quick
            (check ~what:"template" ~field:(fun (_, t, _, _) -> t)
               template_digest);
          Alcotest.test_case "csp encodings pinned" `Quick
            (check ~what:"encodings" ~field:(fun (_, _, e, _) -> e)
               encodings_digest);
          Alcotest.test_case "csp segmentation pinned" `Quick
            (check ~what:"segmentation" ~field:(fun (_, _, _, s) -> s)
               segmentation_digest);
          Alcotest.test_case "coverage segmentation pinned" `Quick
            (fun () ->
              Alcotest.(check (list string)) "every input has a digest"
                (List.map fst (Lazy.force inputs))
                (List.map fst coverage_expected);
              check_pinned ~what:"coverage" coverage_expected coverage_digest
                ());
          Alcotest.test_case "csp columns pinned" `Quick
            (check_pinned ~what:"columns" columns_expected columns_digest);
        ] );
    ]
