type metric = { name : string; value : float; unit_ : string }

let number x =
  if Float.is_nan x || Float.abs x = Float.infinity then
    invalid_arg "Report.number: not a finite number";
  let rec shortest digits =
    let s = Printf.sprintf "%.*g" digits x in
    if digits >= 17 || float_of_string s = x then s else shortest (digits + 1)
  in
  shortest 1

let json_string s =
  let buffer = Buffer.create (String.length s + 2) in
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"';
  Buffer.contents buffer

let result_line ~correct ~attempted ~failed metrics =
  let names = List.map (fun m -> m.name) metrics in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Report.result_line: duplicate metric name";
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
      (number m.value) (json_string m.unit_)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
