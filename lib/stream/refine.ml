(** Incremental page-template estimation over the head window.

    Template induction is order-sensitive and runs once per unit over the
    sealed head window; this module is the {e live} estimate
    that narrows monotonically as head pages arrive, so a consumer can
    watch the template converge before the first unit closes. The estimate
    exploits the structure of the batch filter: a key is base-eligible only
    if it occurs exactly once on every page {e with the same (previous,
    next) context}, so the context recorded from the first page never has
    to be revisited — each new page can only evict candidates — and the
    word-boundary erosion fixpoint can be run on the first page alone,
    because surviving candidates have that same neighborhood everywhere.

    It is an estimator, not the authority: filtering then intersecting is
    not in general the same as the batch's LCS over filtered sequences, so
    units always re-induce over the sealed head. *)

open Tabseg_token

type candidate = {
  c_position : int;  (** unique position on the first page *)
  c_prev : string;
  c_next : string;
}

type t = {
  mutable first : Token.t array option;
  candidates : (string, candidate) Hashtbl.t;
  mutable pages_seen : int;
  mutable last_positions : int list;  (** ascending; boundary estimate *)
}

let create () =
  {
    first = None;
    candidates = Hashtbl.create 256;
    pages_seen = 0;
    last_positions = [];
  }

let neighbor_key page j =
  if j < 0 then "^page-start^"
  else if j >= Array.length page then "^page-end^"
  else Token.template_key page.(j)

(* key -> positions (reversed) on [page]. *)
let key_positions page =
  let positions = Hashtbl.create 256 in
  Array.iteri
    (fun i token ->
      let key = Token.template_key token in
      Hashtbl.replace positions key
        (i :: Option.value ~default:[] (Hashtbl.find_opt positions key)))
    page;
  positions

let seed t page =
  t.first <- Some page;
  let positions = key_positions page in
  Hashtbl.iter
    (fun key occurrences ->
      match occurrences with
      | [ i ] ->
        Hashtbl.replace t.candidates key
          {
            c_position = i;
            c_prev = neighbor_key page (i - 1);
            c_next = neighbor_key page (i + 1);
          }
      | _ -> ())
    positions

(* Drop candidates that do not occur exactly once on [page] in the context
   recorded from the first page. Monotone: candidates are only removed. *)
let narrow t page =
  let positions = key_positions page in
  let doomed = ref [] in
  Hashtbl.iter
    (fun key candidate ->
      let keep =
        match Hashtbl.find_opt positions key with
        | Some [ i ] ->
          neighbor_key page (i - 1) = candidate.c_prev
          && neighbor_key page (i + 1) = candidate.c_next
        | Some _ | None -> false
      in
      if not keep then doomed := key :: !doomed)
    t.candidates;
  List.iter (Hashtbl.remove t.candidates) !doomed

(* Word-boundary erosion on the first page: a surviving candidate's word
   neighbors must be candidates too. Shrinking the input only shrinks the
   output, so running this after every narrowing keeps the estimate
   monotone. *)
let erode t =
  match t.first with
  | None -> ()
  | Some page ->
    let is_tag key = String.length key > 0 && key.[0] = '<' in
    let boundary key = key = "^page-start^" || key = "^page-end^" in
    let ok key =
      is_tag key || boundary key || Hashtbl.mem t.candidates key
    in
    let changed = ref true in
    while !changed do
      changed := false;
      let doomed = ref [] in
      Hashtbl.iter
        (fun key candidate ->
          let i = candidate.c_position in
          if
            not
              (ok (neighbor_key page (i - 1)) && ok (neighbor_key page (i + 1)))
          then doomed := key :: !doomed)
        t.candidates;
      if !doomed <> [] then begin
        changed := true;
        List.iter (Hashtbl.remove t.candidates) !doomed
      end
    done

let estimate t =
  let positions =
    Hashtbl.fold (fun _ candidate acc -> candidate.c_position :: acc)
      t.candidates []
    |> List.sort compare
  in
  let slot_count =
    match t.first with
    | None -> 0
    | Some page ->
      (* Non-empty gaps between consecutive template positions, plus the
         prefix and suffix — the shape Template.slots would cut. *)
      let boundaries = (-1 :: positions) @ [ Array.length page ] in
      let rec count acc = function
        | left :: (right :: _ as rest) ->
          count (if right > left + 1 then acc + 1 else acc) rest
        | [ _ ] | [] -> acc
      in
      count 0 boundaries
  in
  (positions, slot_count)

let observe t page =
  t.pages_seen <- t.pages_seen + 1;
  (match t.first with
  | None -> seed t page
  | Some _ -> narrow t page);
  erode t;
  if t.pages_seen < 2 then None
  else begin
    let positions, slot_count = estimate t in
    let boundaries_changed = positions <> t.last_positions in
    t.last_positions <- positions;
    Some
      {
        Frame.pages_seen = t.pages_seen;
        template_size = List.length positions;
        slot_count;
        boundaries_changed;
      }
  end

let size t = Hashtbl.length t.candidates
