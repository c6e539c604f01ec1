open Tabseg_token

type t = { template_keys : string array }

module Keys = Hashtbl.Make (String)

(* The index is built on first use, so a page whose template comes from a
   cache is never indexed. *)
type page = { tokens : Token.t array; unique : int Keys.t Lazy.t }

let page tokens =
  let index () =
    let unique = Keys.create 256 in
    Array.iteri
      (fun i token ->
        let key = Token.template_key token in
        match Keys.find_opt unique key with
        | None -> Keys.add unique key i
        | Some -1 -> ()
        | Some _ -> Keys.replace unique key (-1))
      tokens;
    unique
  in
  { tokens; unique = Lazy.from_fun index }

let tokens page = page.tokens

(* The position of [key]'s only occurrence on [page]; -1 if it repeats or
   is absent. *)
let position page key =
  Option.value (Keys.find_opt (Lazy.force page.unique) key) ~default:(-1)

let neighbor_key page j =
  if j < 0 then "^page-start^"
  else if j >= Array.length page.tokens then "^page-end^"
  else Token.template_key page.tokens.(j)

(* Tokens eligible for the page template must (1) occur exactly once on
   every page, (2) in the same immediate context (previous and next token
   key), and (3) — computed as a fixpoint — have every adjacent *word*
   neighbor be eligible too (tag neighbors are exempt). Rules 2 and 3
   reject data values that happen to occur once per page (a "Betty Lee" on
   both pages keeps "Betty" unique, but its neighbor "Lee" repeats and is
   ineligible, which disqualifies "Betty" as well), while keeping genuine
   per-row structure such as entry enumerators, whose neighbors are the
   same row tags on every page, and chrome sentences, whose neighbors are
   eligible chrome words.

   Rule 1 leaves only keys unique on the first page, and rule 2 gives each
   one the context it has there, so the erosion of rule 3 checks each
   candidate on the first page alone; its greatest fixpoint does not
   depend on the order in which candidates are visited. *)
let eligible pages =
  match pages with
  | [] -> []
  | first :: rest ->
    let same_context i page j =
      String.equal (neighbor_key page (j - 1)) (neighbor_key first (i - 1))
      && String.equal (neighbor_key page (j + 1)) (neighbor_key first (i + 1))
    in
    let alive = Array.make (Array.length first.tokens) false in
    Keys.iter
      (fun key i ->
        if i >= 0 then
          alive.(i) <-
            List.for_all
              (fun page ->
                let j = position page key in
                j >= 0 && same_context i page j)
              rest)
      (Lazy.force first.unique);
    let neighbor_ok j =
      let key = neighbor_key first j in
      (String.length key > 0 && key.[0] = '<')
      || key = "^page-start^" || key = "^page-end^" || alive.(j)
    in
    let candidates = ref [] in
    for i = Array.length alive - 1 downto 0 do
      if alive.(i) then candidates := i :: !candidates
    done;
    let changed = ref true in
    while !changed do
      changed := false;
      candidates :=
        List.filter
          (fun i ->
            neighbor_ok (i - 1) && neighbor_ok (i + 1)
            || begin
              alive.(i) <- false;
              changed := true;
              false
            end)
          !candidates
    done;
    !candidates

let induce_pages pages =
  match pages with
  | [] -> { template_keys = [||] }
  | first :: rest ->
    let initial =
      Array.of_list
        (List.map
           (fun i -> Token.template_key first.tokens.(i))
           (eligible pages))
    in
    (* An eligible key occurs once on every page, so a page's sequence of
       eligible keys is them in the order of their positions there. *)
    let filtered page =
      let placed = Array.map (fun key -> (position page key, key)) initial in
      Array.sort (fun (a, _) (b, _) -> Int.compare a b) placed;
      Array.map snd placed
    in
    let template_keys =
      List.fold_left
        (fun acc page ->
          let sequence = filtered page in
          (* The LCS of two equal sequences is the sequence. *)
          if sequence = acc then acc
          else Array.of_list (Lcs.of_arrays ~equal:String.equal acc sequence))
        initial rest
    in
    { template_keys }

let induce pages = induce_pages (List.map page pages)

let keys t = Array.to_list t.template_keys
let size t = Array.length t.template_keys

let positions_on t page =
  let n = Array.length t.template_keys in
  let positions = Array.make n (-1) in
  let rec fill i previous =
    i = n
    ||
    let found = position page t.template_keys.(i) in
    found > previous
    && begin
      positions.(i) <- found;
      fill (i + 1) found
    end
  in
  if fill 0 (-1) then Some positions else None

let match_positions t tokens = positions_on t (page tokens)

let page_slots t indexed =
  let page = indexed.tokens in
  match positions_on t indexed with
  | None -> [ Slot.whole_page page ]
  | Some positions ->
    let n = Array.length page in
    let boundaries =
      (-1 :: Array.to_list positions) @ [ n ]
    in
    let rec gaps acc = function
      | left :: (right :: _ as rest) ->
        let start = left + 1 and stop = right in
        let acc =
          if stop > start then Slot.make page ~start ~stop :: acc else acc
        in
        gaps acc rest
      | [ _ ] | [] -> List.rev acc
    in
    gaps [] boundaries

let slots t tokens = page_slots t (page tokens)

let covers_words t page =
  let template = Hashtbl.create 256 in
  Array.iter (fun key -> Hashtbl.replace template key ()) t.template_keys;
  Array.to_list page
  |> List.filter (fun token ->
         Token.is_word token
         && Hashtbl.mem template (Token.template_key token))
  |> List.length

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>template(%d):@ %a@]"
    (Array.length t.template_keys)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
       Format.pp_print_string)
    (Array.to_list t.template_keys)
