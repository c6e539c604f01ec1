(* Bit-identity golden test for the probabilistic segmenter: every Table 4
   list page, and page 0 of 24 sampled corpus sites, under the Period
   model, the Base model and posterior decoding must keep the exact
   segmentation and diagnostics recorded here. Floats are printed in
   hexadecimal ([%h]), so a digest moves if any posterior, log-likelihood
   or learned parameter changes in its last bit. The Table 4 digests were
   produced by the dense inference loops (every pair of states at adjacent
   positions), the corpus digests by the sparse passes over a lattice of
   closures; both pin any faster kernel to the same floating-point
   results. *)

open Tabseg_extract
module Prob = Tabseg.Prob_segmenter
module Segmentation = Tabseg.Segmentation
module Sites = Tabseg_sitegen.Sites
module Family = Tabseg_corpus.Family
module Harness = Tabseg_corpus.Harness

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

(* Page 0 of 24 sampled sites with three siblings each, as the corpus
   harness segments them. Six of them reach the column cap k = 12 (Table 4
   has two such pages), from other site families. *)
let corpus_pages =
  lazy
    (List.map
       (fun (name, input, _truth) -> (name, Tabseg.Pipeline.prepare input))
       (Harness.site_inputs
          (Family.sample
             { Family.default_params with Family.sites = 24; seed = 17 })))

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

let corpus_expected =
  [
    (("period", "corpus00000"), "7a8ff6105e826d4bcfbc7b7055b0cb4e");
    (("period", "corpus00001"), "cc397e1b4f4095888e2e5e680d32d9f0");
    (("period", "corpus00002"), "6630f7bc5c1a86cc712caa39d16e86f8");
    (("period", "corpus00003"), "d7118b612fe502343ec8c7eb0e1fe184");
    (("period", "corpus00004"), "2af763edb14b36a6c649653a9edee3e9");
    (("period", "corpus00005"), "53a2cfe878dfbeb0187db80e1c14b4f6");
    (("period", "corpus00006"), "d38f68d7b9451f732c21b3847697c3b5");
    (("period", "corpus00007"), "217b957ec724ba281794b70cf7820994");
    (("period", "corpus00008"), "db0338ed893de061371b869827ed8e4c");
    (("period", "corpus00009"), "c5cd53c13cf8842f82a7ef4112089f79");
    (("period", "corpus00010"), "158b6bbdd993276dab420786e597df5e");
    (("period", "corpus00011"), "cd27cad703d2f4353b14b3fc1b3f4f3a");
    (("period", "corpus00012"), "c0dd42a444bcd279d48a758623ec9364");
    (("period", "corpus00013"), "7e879688abcb5f326abee8ac07d05380");
    (("period", "corpus00014"), "8e6448861ef6d1956039c1c4c705e237");
    (("period", "corpus00015"), "d91e17c66a5dd49876b11b35c8741c0a");
    (("period", "corpus00016"), "4b8367d332d84675f803b87e75f11f94");
    (("period", "corpus00017"), "af7fdfd89b3449998c647cc3b54baf59");
    (("period", "corpus00018"), "8c666dd68aff3615dd30feeb0b74a630");
    (("period", "corpus00019"), "4377cd4ee3cd2d1a8ead7c231e8b8659");
    (("period", "corpus00020"), "948ce781b26dee78ca51e4733ff8fcf3");
    (("period", "corpus00021"), "bdfc6f678fed5f1c6099229e2d5e3092");
    (("period", "corpus00022"), "3cc2ad8c8d175ce4f3c821a7d43bab4f");
    (("period", "corpus00023"), "8438ae2f75484c7b16c5babc07b1bbd5");
    (("base", "corpus00000"), "7629b69388218d81bcb70ddb4d19a49d");
    (("base", "corpus00001"), "6eced894cd62a405706346c41f300707");
    (("base", "corpus00002"), "52038b9a525806ce34acd29154ee08ca");
    (("base", "corpus00003"), "65eaf7bc9d12bbe8d83056143af0231e");
    (("base", "corpus00004"), "6a918a0e42acd26527293782be351431");
    (("base", "corpus00005"), "d81999f81265b9327d17efa563bc0513");
    (("base", "corpus00006"), "14395f688cdf6fc46d97d474c40e766a");
    (("base", "corpus00007"), "3d03ea98172b8d84d0f0646ece5e562f");
    (("base", "corpus00008"), "d0bc18373486c1d5a0b56cdad0bc4bc8");
    (("base", "corpus00009"), "11d131018c3befe01f4c701a510672c4");
    (("base", "corpus00010"), "43569c529346f02b8392e6780b9af1f1");
    (("base", "corpus00011"), "6f4c4bec30a413e8e3d9569a2ea74bca");
    (("base", "corpus00012"), "6de11dc284a98fa99ae4101baa8e432e");
    (("base", "corpus00013"), "870b303e48e6f8d695b280dac2d555e5");
    (("base", "corpus00014"), "bd88428db59c029caba9b2513ce702c7");
    (("base", "corpus00015"), "6d36e2ac5f39858403b89c437dc12e73");
    (("base", "corpus00016"), "7b7876e35ec265de4a139f6485282414");
    (("base", "corpus00017"), "f44275600c144b6b7a8f428e7b2eaabd");
    (("base", "corpus00018"), "24b8134683f4fef420fcd6150e0a182d");
    (("base", "corpus00019"), "5f2f81000641941d53a50cf5229fdf1c");
    (("base", "corpus00020"), "0a22b0424bbfd7a57226cdd03aa4cee5");
    (("base", "corpus00021"), "ede2447bd99518a64d4f71d1603da69d");
    (("base", "corpus00022"), "08e81593c7a58a7db129d1bed010cc0b");
    (("base", "corpus00023"), "7d340a1c7a8a5a270d065ba527406703");
    (("posterior", "corpus00000"), "7a8ff6105e826d4bcfbc7b7055b0cb4e");
    (("posterior", "corpus00001"), "cc397e1b4f4095888e2e5e680d32d9f0");
    (("posterior", "corpus00002"), "6630f7bc5c1a86cc712caa39d16e86f8");
    (("posterior", "corpus00003"), "d7118b612fe502343ec8c7eb0e1fe184");
    (("posterior", "corpus00004"), "2af763edb14b36a6c649653a9edee3e9");
    (("posterior", "corpus00005"), "53a2cfe878dfbeb0187db80e1c14b4f6");
    (("posterior", "corpus00006"), "d38f68d7b9451f732c21b3847697c3b5");
    (("posterior", "corpus00007"), "217b957ec724ba281794b70cf7820994");
    (("posterior", "corpus00008"), "db0338ed893de061371b869827ed8e4c");
    (("posterior", "corpus00009"), "c5cd53c13cf8842f82a7ef4112089f79");
    (("posterior", "corpus00010"), "158b6bbdd993276dab420786e597df5e");
    (("posterior", "corpus00011"), "cd27cad703d2f4353b14b3fc1b3f4f3a");
    (("posterior", "corpus00012"), "c0dd42a444bcd279d48a758623ec9364");
    (("posterior", "corpus00013"), "7e879688abcb5f326abee8ac07d05380");
    (("posterior", "corpus00014"), "8e6448861ef6d1956039c1c4c705e237");
    (("posterior", "corpus00015"), "d91e17c66a5dd49876b11b35c8741c0a");
    (("posterior", "corpus00016"), "4b8367d332d84675f803b87e75f11f94");
    (("posterior", "corpus00017"), "af7fdfd89b3449998c647cc3b54baf59");
    (("posterior", "corpus00018"), "8c666dd68aff3615dd30feeb0b74a630");
    (("posterior", "corpus00019"), "4377cd4ee3cd2d1a8ead7c231e8b8659");
    (("posterior", "corpus00020"), "948ce781b26dee78ca51e4733ff8fcf3");
    (("posterior", "corpus00021"), "bdfc6f678fed5f1c6099229e2d5e3092");
    (("posterior", "corpus00022"), "3cc2ad8c8d175ce4f3c821a7d43bab4f");
    (("posterior", "corpus00023"), "8438ae2f75484c7b16c5babc07b1bbd5")
  ]

let test_config expected pages (name, config) () =
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
              `Quick (test_config expected pages config))
          configs
        @ List.map
            (fun ((name, _) as config) ->
              Alcotest.test_case
                (name ^ " bit-identical on the corpus sample")
                `Quick (test_config corpus_expected corpus_pages config))
            configs );
    ]
