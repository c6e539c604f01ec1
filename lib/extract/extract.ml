open Tabseg_token

type t = {
  id : int;
  words : string list;
  text : string;
  start_index : int;
  stop_index : int;
  types : int;
  first_types : int;
}

let of_run run =
  match run with
  | [] -> None
  | (first : Token.t) :: _ ->
    let rec last = function
      | [ (t : Token.t) ] -> t
      | _ :: rest -> last rest
      | [] -> assert false
    in
    let words = List.map (fun (t : Token.t) -> t.Token.text) run in
    Some
      {
        id = -1;
        words;
        text = String.concat " " words;
        start_index = first.Token.index;
        stop_index = (last run).Token.index + 1;
        types =
          List.fold_left (fun acc (t : Token.t) -> acc lor t.Token.types) 0 run;
        first_types = first.Token.types;
      }

let of_token_list tokens =
  let runs = ref [] and current = ref [] in
  let flush () =
    match of_run (List.rev !current) with
    | Some extract -> runs := extract :: !runs; current := []
    | None -> current := []
  in
  List.iter
    (fun token ->
      if Token.is_separator token then flush ()
      else if Token.is_word token then current := token :: !current)
    tokens;
  flush ();
  List.rev !runs |> List.mapi (fun id extract -> { extract with id })

let of_slot slot = of_token_list (Tabseg_template.Slot.tokens slot)
let of_tokens stream = of_token_list (Array.to_list stream)

let pp ppf t = Format.fprintf ppf "E%d:%S@%d" (t.id + 1) t.text t.start_index
