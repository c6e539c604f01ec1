(** Incremental page-template estimation over the head window.

    The engine keeps one index per head page
    ({!Tabseg_template.Template.page}, from the page's arrival) and hands
    the head so far to {!observe}: the {e live} estimate, which narrows
    monotonically as head pages arrive, so a consumer can watch the
    template converge before the first unit closes. The estimate is the
    set of tokens eligible for the template over the head so far
    ({!Tabseg_template.Template.eligible}); each new page can only evict
    candidates.

    It is an estimator, not the authority: the batch template is the
    longest common subsequence of the eligible keys across the pages, and
    each unit's template also covers that unit's own page. Units induce
    over the same head indexes, so each head page is indexed once and each
    unit indexes only its own page, with the batch path's output. *)

open Tabseg_template

type t = { mutable last_positions : int list  (** ascending *) }

let create () = { last_positions = [] }

(* [observe t pages]: the estimate over the head pages so far, in order;
   none before the second page. *)
let observe t pages =
  match pages with
  | [] | [ _ ] -> None
  | first :: _ ->
    let positions = Template.eligible pages in
    (* Non-empty gaps between consecutive template positions, plus the
       prefix and suffix — the shape Template.slots would cut. *)
    let boundaries =
      (-1 :: positions) @ [ Array.length (Template.tokens first) ]
    in
    let rec count acc = function
      | left :: (right :: _ as rest) ->
        count (if right > left + 1 then acc + 1 else acc) rest
      | [ _ ] | [] -> acc
    in
    let boundaries_changed = positions <> t.last_positions in
    t.last_positions <- positions;
    Some
      {
        Frame.pages_seen = List.length pages;
        template_size = List.length positions;
        slot_count = count 0 boundaries;
        boundaries_changed;
      }
