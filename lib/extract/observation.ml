open Tabseg_token

(* The extracts' first words. Under OCAMLRUNPARAM=R the table takes a
   random seed, as Stdlib's do; it is only looked up, so no seed can reach
   an observation, and the randomized test runs check that none does. *)
module Firsts = Hashtbl.MakeSeeded (struct
  type t = string

  let equal = String.equal
  let seeded_hash = String.seeded_hash
end)

type entry = {
  extract : Extract.t;
  pages : int list;
  positions : (int * int) list;
}

type t = {
  entries : entry array;
  extras : Extract.t list;
  num_details : int;
}

type builder = {
  b_extracts : Extract.t array;
  b_words : string array array;  (** each extract's words *)
  b_first : int list Firsts.t;
      (** first word -> the extracts that start with it, ascending *)
  b_acc : (int * int) list array;  (** per-extract observations, reversed *)
  mutable b_details : int;
}

let start extracts =
  let b_extracts = Array.of_list extracts in
  let b_words =
    Array.map (fun (e : Extract.t) -> Array.of_list e.Extract.words) b_extracts
  in
  let b_first = Firsts.create (Array.length b_extracts) in
  for i = Array.length b_words - 1 downto 0 do
    if Array.length b_words.(i) > 0 then begin
      let first = b_words.(i).(0) in
      let existing =
        Option.value ~default:[] (Firsts.find_opt b_first first)
      in
      Firsts.replace b_first first (i :: existing)
    end
  done;
  {
    b_extracts;
    b_words;
    b_first;
    b_acc = Array.make (Array.length b_extracts) [];
    b_details = 0;
  }

(* [extract]'s words after the first equal [words.(at + 1 ..)]. *)
let rec rest_matches extract words at k =
  k >= Array.length extract
  || at + k < Array.length words
     && String.equal (Array.unsafe_get extract k)
          (Array.unsafe_get words (at + k))
     && rest_matches extract words at (k + 1)

(* Record an observation at word [at] of [page] for each of [starting]
   whose remaining words follow there. *)
let rec record b (scan : Tokenizer.word_scan) page at = function
  | [] -> ()
  | i :: starting ->
    if rest_matches b.b_words.(i) scan.Tokenizer.words at 1 then
      b.b_acc.(i) <- (page, scan.Tokenizer.indices.(at)) :: b.b_acc.(i);
    record b scan page at starting

let add_detail b (scan : Tokenizer.word_scan) =
  let page = b.b_details in
  b.b_details <- page + 1;
  Array.iteri
    (fun at word ->
      match Firsts.find_opt b.b_first word with
      | Some starting -> record b scan page at starting
      | None -> ())
    scan.Tokenizer.words

let finish ?(other_lists = []) b =
  let num_details = b.b_details in
  let on_all_other_lists (extract : Extract.t) =
    other_lists <> []
    && List.for_all
         (fun index -> Matching.contains index extract.Extract.words)
         other_lists
  in
  let entries = ref [] and extras = ref [] in
  Array.iteri
    (fun i extract ->
      let positions = List.rev b.b_acc.(i) in
      let pages = List.sort_uniq compare (List.map fst positions) in
      let uninformative =
        pages = []
        || (num_details >= 2 && List.length pages = num_details)
        || on_all_other_lists extract
      in
      if uninformative then extras := extract :: !extras
      else entries := { extract; pages; positions } :: !entries)
    b.b_extracts;
  {
    entries = Array.of_list (List.rev !entries);
    extras = List.rev !extras;
    num_details;
  }

let build ?(other_list_pages = []) ~extracts ~details () =
  let b = start extracts in
  List.iter
    (fun tokens -> add_detail b (Tokenizer.word_scan_of_tokens tokens))
    details;
  finish ~other_lists:(List.map Matching.index_detail other_list_pages) b

let candidate_count t =
  Array.fold_left
    (fun acc entry -> acc + List.length entry.pages)
    0 t.entries

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun entry ->
      Format.fprintf ppf "E%-3d %-28s D = {%s}@,"
        (entry.extract.Extract.id + 1)
        (Printf.sprintf "%S" entry.extract.Extract.text)
        (String.concat ","
           (List.map (fun page -> Printf.sprintf "r%d" (page + 1)) entry.pages)))
    t.entries;
  Format.fprintf ppf "@]"

let pp_positions ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun entry ->
      List.iter
        (fun (page, position) ->
          Format.fprintf ppf "E%-3d pos_%d^%d@," (entry.extract.Extract.id + 1)
            (page + 1) position)
        entry.positions)
    t.entries;
  Format.fprintf ppf "@]"
