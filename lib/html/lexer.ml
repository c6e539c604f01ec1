type attribute = { name : string; value : string option }

type event =
  | Start_tag of { name : string; attributes : attribute list;
                   self_closing : bool }
  | End_tag of string
  | Text of string
  | Comment of string
  | Doctype of string

(* Byte classes: the one definition of whitespace, tag-name characters
   and the paper's punctuation classes, read by the scanner, the
   tokenizer and [Token.is_separator]. *)
let space_class = 1
let name_class = 2
let benign_class = 4
let special_class = 8

let byte_classes =
  String.init 256 (fun code ->
      let c = Char.chr code in
      let space = String.contains " \t\n\r\012" c in
      let alnum =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      in
      let benign = String.contains ".,()-" c in
      let bit flag value = if flag then value else 0 in
      Char.chr
        (bit space space_class
        lor bit (alnum || c = '-' || c = ':') name_class
        lor bit benign benign_class
        lor bit (code < 128 && not (alnum || space || benign)) special_class))

let is_class bit c = Char.code (String.unsafe_get byte_classes (Char.code c)) land bit <> 0
let is_space c = is_class space_class c
let is_tag_name_char c = is_class name_class c
let is_benign_punctuation c = is_class benign_class c

let lowercase = String.lowercase_ascii

(* [min n k] on ints, without the polymorphic compare. *)
let clamp n k : int = if k < n then k else n

(* The first [c] at or after [i], or [n]. *)
let rec index s c i n = if i >= n || String.unsafe_get s i = c then i else index s c (i + 1) n

let rec skip_space s j stop = if j < stop && is_space s.[j] then skip_space s (j + 1) stop else j

(* Walk the attributes between index [i] and the tag's end [stop] (its '>'
   or the end of input), calling [f name_start name_end value_start
   value_end] on each in order, with [value_start = -1] when it has no
   value. True when the tag closes itself: a '/' just before [stop], where
   an attribute would begin. *)
let walk_attributes s i stop f =
  let rec loop j =
    let j = skip_space s j stop in
    if j >= stop then false
    else if s.[j] = '/' && j = stop - 1 then true
    else begin
      (* attribute name: up to '=', space or end *)
      let rec name_end k =
        if k < stop && not (is_space s.[k]) && s.[k] <> '=' && s.[k] <> '/'
        then name_end (k + 1)
        else k
      in
      let name_end = name_end j in
      if name_end = j then loop (j + 1)
      else
        let k = skip_space s name_end stop in
        if k < stop && s.[k] = '=' then begin
          let k = skip_space s (k + 1) stop in
          if k < stop && (s.[k] = '"' || s.[k] = '\'') then begin
            let value_end = index s s.[k] (k + 1) stop in
            f j name_end (k + 1) value_end;
            loop (if value_end < stop then value_end + 1 else value_end)
          end
          else begin
            let rec value_end m =
              if m < stop && not (is_space s.[m]) then value_end (m + 1) else m
            in
            let value_end = value_end k in
            f j name_end k value_end;
            loop value_end
          end
        end
        else begin
          f j name_end (-1) (-1);
          loop k
        end
    end
  in
  loop i

let no_attribute _ _ _ _ = ()

let parse_attributes s i stop =
  let attributes = ref [] in
  let sub start stop = String.sub s start (stop - start) in
  let self_closing =
    walk_attributes s i stop (fun name_start name_end value_start value_end ->
        let value =
          if value_start < 0 then None else Some (sub value_start value_end)
        in
        attributes := { name = lowercase (sub name_start name_end); value }
                      :: !attributes)
  in
  (List.rev !attributes, self_closing)

let attribute_value attributes name =
  let name = lowercase name in
  let rec find = function
    | [] -> None
    | { name = n; value } :: rest ->
      if lowercase n = name then
        match value with
        | Some v -> Some (Entity.decode v)
        | None -> find rest
      else find rest
  in
  find attributes

type span =
  | Text_span
  | Start_name
  | End_name
  | Raw_span
  | Comment_span
  | Doctype_span

let rec name_stop s k n = if k < n && is_tag_name_char s.[k] then name_stop s (k + 1) n else k

(* The first "-->" at or after [j], or [n]. *)
let rec comment_end s j n =
  if j + 2 >= n then n
  else if s.[j] = '-' && s.[j + 1] = '-' && s.[j + 2] = '>' then j
  else comment_end s (j + 1) n

(* Is [s.[start..]] the lowercase [name] from its [k]th byte on, in any
   ASCII case? *)
let rec agrees s start name k =
  k = String.length name
  || Char.lowercase_ascii (String.unsafe_get s (start + k)) = name.[k]
     && agrees s start name (k + 1)

(* The raw-text element a start tag named [s.[start..stop-1]] opens:
   "script", "style", or "" for any other tag. *)
let raw_element s start stop =
  let length = stop - start in
  if length = 6 && agrees s start "script" 0 then "script"
  else if length = 5 && agrees s start "style" 0 then "style"
  else ""

(* Where the raw body that starts at [j] ends: the first "</" ^ [name],
   in any case, followed by whitespace, '>' or the end of input; [n] when
   there is none. *)
let rec raw_end s j n name =
  let j = index s '<' j n in
  let k = j + 2 + String.length name in
  if k > n then n
  else if
    s.[j + 1] = '/' && agrees s (j + 2) name 0
    && (k >= n || is_space s.[k] || s.[k] = '>')
  then j
  else raw_end s (j + 1) n name

let scan f init s =
  let n = String.length s in
  (* [text] is where the current text run began; [i] is where to look for
     the next markup. *)
  let text_span acc text stop = if stop > text then f acc Text_span text stop else acc in
  let rec loop acc text i =
    let i = index s '<' i n in
    if i >= n then text_span acc text n
    else if i + 3 < n && s.[i + 1] = '!' && s.[i + 2] = '-' && s.[i + 3] = '-' then begin
      let acc = text_span acc text i in
      let stop = comment_end s (i + 4) n in
      let acc = f acc Comment_span (i + 4) stop in
      let next = clamp n (stop + 3) in
      loop acc next next
    end
    else if i + 1 < n && s.[i + 1] = '!' then begin
      let acc = text_span acc text i in
      let stop = index s '>' i n in
      let acc = f acc Doctype_span (i + 2) stop in
      let next = clamp n (stop + 1) in
      loop acc next next
    end
    else if i + 1 < n && s.[i + 1] = '/' then begin
      let stop = name_stop s (i + 2) n in
      if stop = i + 2 then loop acc text (i + 1)
      else begin
        let acc = text_span acc text i in
        let acc = f acc End_name (i + 2) stop in
        let next = clamp n (index s '>' stop n + 1) in
        loop acc next next
      end
    end
    else if i + 1 < n && is_tag_name_char s.[i + 1] then begin
      let acc = text_span acc text i in
      let name = i + 1 in
      let stop = name_stop s name n in
      let tag_end = index s '>' stop n in
      let acc = f acc Start_name name stop in
      let next = clamp n (tag_end + 1) in
      let raw = raw_element s name stop in
      if String.length raw = 0 || walk_attributes s stop tag_end no_attribute then
        loop acc next next
      else begin
        let body_end = raw_end s next n raw in
        let acc = if body_end > next then f acc Raw_span next body_end else acc in
        let acc = f acc End_name name stop in
        let after =
          if body_end >= n then n
          else clamp n (index s '>' (body_end + 2 + String.length raw) n + 1)
        in
        loop acc after after
      end
    end
    else (* a lone '<' that starts nothing recognizable: literal text *)
      loop acc text (i + 1)
  in
  loop init 0 0

let lex s =
  let sub start stop = String.sub s start (stop - start) in
  let event events span start stop =
    match span with
    | Text_span | Raw_span -> Text (sub start stop) :: events
    | Comment_span -> Comment (sub start stop) :: events
    | Doctype_span -> Doctype (sub start stop) :: events
    | End_name -> End_tag (lowercase (sub start stop)) :: events
    | Start_name ->
      let attributes, self_closing =
        parse_attributes s stop (index s '>' stop (String.length s))
      in
      Start_tag { name = lowercase (sub start stop); attributes; self_closing }
      :: events
  in
  List.rev (scan event [] s)

let pp_event ppf = function
  | Start_tag { name; attributes; self_closing } ->
    let pp_attr ppf { name; value } =
      match value with
      | None -> Format.fprintf ppf " %s" name
      | Some v -> Format.fprintf ppf " %s=%S" name v
    in
    Format.fprintf ppf "<%s%a%s>" name
      (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_attr)
      attributes
      (if self_closing then "/" else "")
  | End_tag name -> Format.fprintf ppf "</%s>" name
  | Text t -> Format.fprintf ppf "Text %S" t
  | Comment c -> Format.fprintf ppf "<!--%s-->" c
  | Doctype d -> Format.fprintf ppf "<!%s>" d
