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
  b_acc : (int * int) list array;  (** per-extract observations, reversed *)
  mutable b_details : int;
}

let start extracts =
  let b_extracts = Array.of_list extracts in
  { b_extracts; b_acc = Array.make (Array.length b_extracts) []; b_details = 0 }

let add_detail b index =
  let page = b.b_details in
  b.b_details <- page + 1;
  Array.iteri
    (fun i (extract : Extract.t) ->
      b.b_acc.(i) <-
        List.rev_append
          (List.map
             (fun pos -> (page, pos))
             (Matching.occurrences index extract.Extract.words))
          b.b_acc.(i))
    b.b_extracts

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
  List.iter (fun tokens -> add_detail b (Matching.index_detail tokens)) details;
  finish ~other_lists:(List.map Matching.index_detail other_list_pages) b

let candidate_count t =
  Array.fold_left
    (fun acc entry -> acc + List.length entry.pages)
    0 t.entries

let pages_covered t =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun entry -> List.iter (fun page -> Hashtbl.replace seen page ()) entry.pages)
    t.entries;
  Hashtbl.length seen

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
