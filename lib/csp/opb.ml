let relation_to_string = function
  | Pb.Le -> "<="
  | Pb.Ge -> ">="
  | Pb.Eq -> "="

let linear_to_string (linear : Pb.linear) =
  let terms =
    Array.to_list linear.Pb.terms
    |> List.map (fun (v, coeff) ->
           Printf.sprintf "%+d x%d" coeff (v + 1))
  in
  Printf.sprintf "%s %s %d ;" (String.concat " " terms)
    (relation_to_string linear.Pb.relation)
    linear.Pb.bound

let to_string (problem : Pb.problem) =
  let buffer = Buffer.create 1024 in
  let hard_count =
    Array.fold_left
      (fun acc weight -> if weight = 0 then acc + 1 else acc)
      0 problem.Pb.weights
  in
  Buffer.add_string buffer
    (Printf.sprintf "* #variable= %d #constraint= %d\n" problem.Pb.num_vars
       hard_count);
  for r = 0 to Pb.num_rows problem - 1 do
    match Pb.row problem r with
    | Pb.Hard linear ->
      Buffer.add_string buffer (linear_to_string linear);
      Buffer.add_char buffer '\n'
    | Pb.Soft (linear, weight) ->
      Buffer.add_string buffer
        (Printf.sprintf "* soft %d: %s\n" weight (linear_to_string linear))
  done;
  Buffer.contents buffer

(* ------------------------------ parsing ---------------------------- *)

let parse_relation = function
  | "<=" -> Some Pb.Le
  | ">=" -> Some Pb.Ge
  | "=" -> Some Pb.Eq
  | _ -> None

let parse_linear tokens =
  (* [+1 x1 +2 x3 >= 2 ;] *)
  let rec terms acc = function
    | coeff :: var :: rest
      when String.length var > 1 && var.[0] = 'x'
           && int_of_string_opt coeff <> None -> (
      match int_of_string_opt (String.sub var 1 (String.length var - 1)) with
      | Some v when v >= 1 ->
        terms ((v - 1, int_of_string coeff) :: acc) rest
      | Some _ | None -> Error "variable index must be >= 1"
      )
    | rest -> Ok (List.rev acc, rest)
  in
  match terms [] tokens with
  | Error _ as e -> e
  | Ok (term_list, rest) -> (
    match rest with
    | relation :: bound :: tail
      when parse_relation relation <> None
           && int_of_string_opt bound <> None
           && (tail = [] || tail = [ ";" ]) ->
      let relation = Option.get (parse_relation relation) in
      Ok (Pb.linear term_list relation (int_of_string bound))
    | _ -> Error "expected '<relation> <bound> ;'")

let tokens_of_line line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let of_string text =
  let lines = String.split_on_char '\n' text in
  let constraints = ref [] in
  let max_var = ref 0 in
  let note_vars (linear : Pb.linear) =
    Array.iter (fun (v, _) -> if v + 1 > !max_var then max_var := v + 1)
      linear.Pb.terms
  in
  let declared_vars = ref None in
  let error = ref None in
  List.iteri
    (fun line_number line ->
      if !error = None then begin
        let fail message =
          error :=
            Some (Printf.sprintf "line %d: %s" (line_number + 1) message)
        in
        let line = String.trim line in
        if line = "" then ()
        else if String.length line >= 1 && line.[0] = '*' then begin
          let tokens = tokens_of_line line in
          match tokens with
          | "*" :: "soft" :: weight :: rest
            when String.length weight > 1
                 && weight.[String.length weight - 1] = ':' -> (
            let weight =
              int_of_string_opt (String.sub weight 0 (String.length weight - 1))
            in
            match weight with
            | Some w when w > 0 -> (
              match parse_linear rest with
              | Ok linear ->
                note_vars linear;
                constraints := Pb.Soft (linear, w) :: !constraints
              | Error message -> fail message)
            | Some _ | None -> fail "bad soft weight")
          | "*" :: "#variable=" :: n :: _ ->
            declared_vars := int_of_string_opt n
          | _ -> () (* ordinary comment *)
        end
        else
          match parse_linear (tokens_of_line line) with
          | Ok linear ->
            note_vars linear;
            constraints := Pb.Hard linear :: !constraints
          | Error message -> fail message
      end)
    lines;
  match !error with
  | Some message -> Error message
  | None ->
    let num_vars =
      match !declared_vars with
      | Some n when n >= !max_var -> n
      | _ -> !max_var
    in
    (try Ok (Pb.make ~num_vars (List.rev !constraints))
     with Invalid_argument message -> Error message)
