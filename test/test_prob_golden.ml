(* Bit-identity golden test for the probabilistic segmenter: every Table 4
   list page under the Period model, the Base model and posterior decoding
   must keep the exact segmentation and diagnostics recorded here. Floats
   are printed in hexadecimal ([%h]), so a digest moves if any posterior,
   log-likelihood or learned parameter changes in its last bit. The
   digests were produced by the dense inference loops (every pair of
   states at adjacent positions), so they pin any faster kernel to the
   same floating-point results. *)

open Tabseg_extract
module Prob = Tabseg.Prob_segmenter
module Segmentation = Tabseg.Segmentation
module Sites = Tabseg_sitegen.Sites

let configs =
  [
    ("period", Prob.default_config);
    ("base", Prob.base_config);
    ( "posterior",
      { Prob.default_config with Prob.decoder = Prob.Posterior_decoding } );
  ]

(* The 24 list pages of Table 4, each prepared once. *)
let pages =
  lazy
    (List.concat_map
       (fun site ->
         let generated = Sites.generate site in
         List.mapi
           (fun page_index _ ->
             let list_pages, detail_pages =
               Sites.segmentation_input generated ~page_index
             in
             ( Printf.sprintf "%s/%d" site.Sites.name page_index,
               Tabseg.Pipeline.prepare
                 { Tabseg.Pipeline.list_pages; detail_pages } ))
           generated.Sites.pages)
       Sites.all)

let render ((segmentation : Segmentation.t), (d : Prob.diagnostics)) =
  let b = Buffer.create 4096 in
  let extracts es =
    String.concat ","
      (List.map
         (fun (e : Extract.t) -> Printf.sprintf "%d:%s" e.Extract.id e.Extract.text)
         es)
  in
  let floats a =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  List.iter
    (fun (r : Segmentation.record) ->
      Printf.bprintf b "r%d [%s] {%s}\n" r.Segmentation.number
        (extracts r.Segmentation.extracts)
        (String.concat ","
           (List.map
              (fun (id, c) -> Printf.sprintf "%d=%d" id c)
              r.Segmentation.columns)))
    segmentation.Segmentation.records;
  Printf.bprintf b "unassigned [%s]\nnotes %s\n"
    (extracts segmentation.Segmentation.unassigned)
    (String.of_seq
       (Seq.map Segmentation.note_letter
          (List.to_seq segmentation.Segmentation.notes)));
  Printf.bprintf b "iterations %d ll %h k %d\n" d.Prob.iterations
    d.Prob.log_likelihood d.Prob.columns_bound;
  Option.iter
    (fun p -> Printf.bprintf b "period %s\n" (floats p))
    d.Prob.period_distribution;
  List.iter
    (fun (c, profile) -> Printf.bprintf b "profile %d %s\n" c (floats profile))
    d.Prob.emission_profiles;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected =
  [
    (("period", "AmazonBooks/0"), "e4917f456d037474145fe054f3e5abcb");
    (("period", "AmazonBooks/1"), "b1292af52dd057c2e2dc08f56866b45b");
    (("period", "BNBooks/0"), "81018795125bb13948ede63752deb19a");
    (("period", "BNBooks/1"), "fdb1f690fb0bd83f4d8898d904872488");
    (("period", "AlleghenyCounty/0"), "c200d374eb45547763dc59093df998d5");
    (("period", "AlleghenyCounty/1"), "73425b541438eb84b92a8b6668c5fb40");
    (("period", "ButlerCounty/0"), "24328f73ecd1bb00f05e2f6da9edc82c");
    (("period", "ButlerCounty/1"), "61946eb055cbedab5c4f867ea036f84e");
    (("period", "LeeCounty/0"), "11ef4053f8939dfcb25e9470334b1b38");
    (("period", "LeeCounty/1"), "2eda7efc438769cc1658d8ab6da016d2");
    (("period", "MichiganCorrections/0"), "e754bd72a77749951aeb820cddd898d1");
    (("period", "MichiganCorrections/1"), "7cf503835c85f60dce0575f8751f4585");
    (("period", "MinnesotaCorrections/0"), "0f3b0d29aa6af6bcd89ef505d56b32d1");
    (("period", "MinnesotaCorrections/1"), "81b40eb0b353b03c0df55bb6fe41515d");
    (("period", "OhioCorrections/0"), "1e668ad5de1d0c46f16abdd253e7f311");
    (("period", "OhioCorrections/1"), "dd7033e091218bf3e0998e83f322df34");
    (("period", "Canada411/0"), "00cb19e765b0b0c9cf03411e33bbbb5f");
    (("period", "Canada411/1"), "e0f2925016a4bb3d92e4818461301804");
    (("period", "SprintCanada/0"), "0ea215b95fb855067502402dc4fa132d");
    (("period", "SprintCanada/1"), "1f4f210abb8ffa89d54f2b553b3028ba");
    (("period", "YahooPeople/0"), "b89fee27800e0fc04db55239b370aacc");
    (("period", "YahooPeople/1"), "6b0d18a9e61a1f399bfb200a16d18993");
    (("period", "SuperPages/0"), "cade3dca95dfb54f71a623fec8801f0f");
    (("period", "SuperPages/1"), "1dfdcaabc4fe30e3a188dfe0aa4b4eb0");
    (("base", "AmazonBooks/0"), "bdea4712c8eeec35603f5b41fb239712");
    (("base", "AmazonBooks/1"), "6c0be013f2ade146f13a06c34305d96c");
    (("base", "BNBooks/0"), "98c92f86bc501aab17078dace8d575ad");
    (("base", "BNBooks/1"), "c73e167c89188741f94d9fe288c33779");
    (("base", "AlleghenyCounty/0"), "f83d37f6e6b216cdb45126200b31f16c");
    (("base", "AlleghenyCounty/1"), "39585da6638a544a6328a47027032893");
    (("base", "ButlerCounty/0"), "a2f394b0c96de8c96c67c3928da63e80");
    (("base", "ButlerCounty/1"), "4fa13d3b1f8a1900f0f20c592a4626e0");
    (("base", "LeeCounty/0"), "b2fdfcbb40f86acaa2c182b671526243");
    (("base", "LeeCounty/1"), "964ffb8d96c08eb9de396e254fe289d7");
    (("base", "MichiganCorrections/0"), "ec11bb684b9868dc20ea98be5d3b93ef");
    (("base", "MichiganCorrections/1"), "039150b244dcc5256fb74cac0d3801e3");
    (("base", "MinnesotaCorrections/0"), "33cb71ea4547515fe5af0307b400fb46");
    (("base", "MinnesotaCorrections/1"), "a40c1884278cbe12a8409cf52cd642bc");
    (("base", "OhioCorrections/0"), "b2853c1954dd69d29137407d3b990914");
    (("base", "OhioCorrections/1"), "512b58670ebb8e0337d9988ecb18999d");
    (("base", "Canada411/0"), "52590fe07b8aa027bf1f36dc0f206631");
    (("base", "Canada411/1"), "3da0f0e2f9636054d7c84e036ef5bc7c");
    (("base", "SprintCanada/0"), "5be1da83b58680a0e73d5eaf79f4f666");
    (("base", "SprintCanada/1"), "5b1fdec4f9eafc07e156cf6024aecb1f");
    (("base", "YahooPeople/0"), "2a554dece7f62a4882d50af3c89171cc");
    (("base", "YahooPeople/1"), "422ce64b639b9265c1ac9d63ef82fb03");
    (("base", "SuperPages/0"), "5ba67b22c1a5ff32b2d3b7d4c7a4c179");
    (("base", "SuperPages/1"), "1987ca442d82814729aab3693500ce3e");
    (("posterior", "AmazonBooks/0"), "e4917f456d037474145fe054f3e5abcb");
    (("posterior", "AmazonBooks/1"), "b1292af52dd057c2e2dc08f56866b45b");
    (("posterior", "BNBooks/0"), "81018795125bb13948ede63752deb19a");
    (("posterior", "BNBooks/1"), "fdb1f690fb0bd83f4d8898d904872488");
    (("posterior", "AlleghenyCounty/0"), "c200d374eb45547763dc59093df998d5");
    (("posterior", "AlleghenyCounty/1"), "73425b541438eb84b92a8b6668c5fb40");
    (("posterior", "ButlerCounty/0"), "24328f73ecd1bb00f05e2f6da9edc82c");
    (("posterior", "ButlerCounty/1"), "61946eb055cbedab5c4f867ea036f84e");
    (("posterior", "LeeCounty/0"), "11ef4053f8939dfcb25e9470334b1b38");
    (("posterior", "LeeCounty/1"), "2eda7efc438769cc1658d8ab6da016d2");
    (("posterior", "MichiganCorrections/0"), "e754bd72a77749951aeb820cddd898d1");
    (("posterior", "MichiganCorrections/1"), "7cf503835c85f60dce0575f8751f4585");
    (("posterior", "MinnesotaCorrections/0"), "0f3b0d29aa6af6bcd89ef505d56b32d1");
    (("posterior", "MinnesotaCorrections/1"), "81b40eb0b353b03c0df55bb6fe41515d");
    (("posterior", "OhioCorrections/0"), "1e668ad5de1d0c46f16abdd253e7f311");
    (("posterior", "OhioCorrections/1"), "dd7033e091218bf3e0998e83f322df34");
    (("posterior", "Canada411/0"), "00cb19e765b0b0c9cf03411e33bbbb5f");
    (("posterior", "Canada411/1"), "e0f2925016a4bb3d92e4818461301804");
    (("posterior", "SprintCanada/0"), "0ea215b95fb855067502402dc4fa132d");
    (("posterior", "SprintCanada/1"), "1f4f210abb8ffa89d54f2b553b3028ba");
    (("posterior", "YahooPeople/0"), "b89fee27800e0fc04db55239b370aacc");
    (("posterior", "YahooPeople/1"), "6b0d18a9e61a1f399bfb200a16d18993");
    (("posterior", "SuperPages/0"), "cade3dca95dfb54f71a623fec8801f0f");
    (("posterior", "SuperPages/1"), "1dfdcaabc4fe30e3a188dfe0aa4b4eb0")
  ]

let test_config (name, config) () =
  List.iter
    (fun (page, prepared) ->
      let actual = render (Prob.segment ~config prepared) in
      match List.assoc_opt (name, page) expected with
      | None -> Alcotest.failf "no golden digest for %s under %s" page name
      | Some digest ->
        Alcotest.(check string) (page ^ " " ^ name) digest actual)
    (Lazy.force pages)

let () =
  Alcotest.run "tabseg_prob_golden"
    [
      ( "golden",
        List.map
          (fun ((name, _) as config) ->
            Alcotest.test_case
              (name ^ " bit-identical on Table 4")
              `Quick (test_config config))
          configs );
    ]
