open Tabseg_token

type detail_index = {
  words : string array;  (** separator-free word tokens in order *)
  first_word : (string, int list) Hashtbl.t;
      (** word -> positions in [words], ascending *)
}

let index_detail stream =
  let words = (Tokenizer.word_scan_of_tokens stream).Tokenizer.words in
  let first_word = Hashtbl.create (Array.length words) in
  for i = Array.length words - 1 downto 0 do
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt first_word words.(i))
    in
    Hashtbl.replace first_word words.(i) (i :: existing)
  done;
  { words; first_word }

let matches_at index position words =
  let n = Array.length index.words in
  let rec check i = function
    | [] -> true
    | word :: rest ->
      i < n && String.equal index.words.(i) word && check (i + 1) rest
  in
  check position words

let contains index words =
  match words with
  | [] -> false
  | first :: _ ->
    Option.value ~default:[] (Hashtbl.find_opt index.first_word first)
    |> List.exists (fun position -> matches_at index position words)
