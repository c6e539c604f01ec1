(* Fuzz hardening: the front half of the pipeline consumes arbitrary Web
   pages, so no input — however malformed — may crash it. These properties
   drive random byte strings and random tag soup through the HTML lexer,
   DOM parser, printer, tokenizer and the full pipeline. The frame
   properties do the same for the envelope every socket speaks: truncated,
   bit-flipped and forged frames come back as [Need_more] or a typed
   error, on the one-shot decoder and through a [Conn] fed in pieces.
   The Marshal payload inside a CRC-valid frame is not fuzzed: Marshal is
   not memory-safe on forged input. *)

module Wire = Tabseg_gateway.Wire
module Conn = Tabseg_gateway.Conn

let random_bytes rand n =
  String.init n (fun _ -> Char.chr (Random.State.int rand 256))

(* Tag soup: random fragments that look vaguely like HTML. *)
let random_soup rand =
  let fragments =
    [| "<"; ">"; "</"; "/>"; "<td"; "</td>"; "<table>"; "<a href=\"";
       "\""; "'"; "&amp;"; "&"; "&#"; "&#x"; ";"; "<!--"; "-->"; "<!";
       "<script>"; "</script>"; "word"; "John Smith"; "123"; "~"; " ";
       "\n"; "="; "<p class=x"; "<>"; "<br/>"; "(740)"; "e&t" |]
  in
  String.concat ""
    (List.init
       (Random.State.int rand 60)
       (fun _ -> fragments.(Random.State.int rand (Array.length fragments))))

let total_survives name f =
  QCheck.Test.make ~name ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let input =
        if seed mod 2 = 0 then random_soup rand
        else random_bytes rand (Random.State.int rand 300)
      in
      match f input with
      | _ -> true
      | exception (Invalid_argument _ | Failure _ | Not_found) -> false)

let prop_lexer = total_survives "lexer never raises" Tabseg_html.Lexer.lex

let prop_dom =
  total_survives "DOM parser never raises" Tabseg_html.Dom.parse

let prop_printer_roundtrip =
  total_survives "print (parse x) never raises" (fun s ->
      Tabseg_html.Printer.to_string (Tabseg_html.Dom.parse s))

let prop_entity =
  total_survives "entity decode never raises" Tabseg_html.Entity.decode

let prop_tokenizer =
  total_survives "tokenizer never raises" Tabseg_token.Tokenizer.tokenize

let prop_pipeline =
  QCheck.Test.make ~name:"full pipeline never raises on tag soup" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed + 5 |] in
      let page () = random_soup rand in
      let input =
        {
          Tabseg.Pipeline.list_pages = [ page (); page () ];
          detail_pages = [ page (); page () ];
        }
      in
      match Tabseg.Api.segment ~method_:Tabseg.Api.Csp input with
      | _ -> true)

(* Determinism under re-parse: parse/print/parse is a fixpoint on the DOM
   (after one normalization pass). *)
let prop_print_parse_fixpoint =
  QCheck.Test.make ~name:"print/parse reaches a fixpoint" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed + 9 |] in
      let soup = random_soup rand in
      let once = Tabseg_html.Printer.to_string (Tabseg_html.Dom.parse soup) in
      let twice = Tabseg_html.Printer.to_string (Tabseg_html.Dom.parse once) in
      let thrice =
        Tabseg_html.Printer.to_string (Tabseg_html.Dom.parse twice)
      in
      twice = thrice)

(* ------------------------------ frames ------------------------------ *)

(* A frame of a random message from either protocol on the envelope:
   master<->worker [Wire] and the daemon's client edge. *)
let random_frame rand =
  let text () = random_bytes rand (Random.State.int rand 40) in
  let int () = Random.State.bits rand in
  let request () =
    {
      Tabseg_serve.Service.id = text ();
      site = text ();
      input =
        { Tabseg.Pipeline.list_pages = [ text () ];
          detail_pages = [ text (); text () ] };
    }
  in
  match Random.State.int rand 7 with
  | 0 -> Wire.encode (Wire.Hello { pid = int (); role = text () })
  | 1 -> Wire.encode (Wire.Request { seq = int (); request = request () })
  | 2 -> Wire.encode (Wire.Ping (int ()))
  | 3 -> Wire.encode (Wire.Pong (int ()))
  | 4 ->
    Tabseg_daemon.Protocol.encode
      (Tabseg_daemon.Protocol.Hello
         { client = text (); token = Some (text ()) })
  | 5 ->
    Tabseg_daemon.Protocol.encode
      (Tabseg_daemon.Protocol.Submit { seq = int (); request = request () })
  | _ ->
    Tabseg_daemon.Protocol.encode
      (Tabseg_daemon.Protocol.Stats [ (text (), Random.State.float rand 1e6) ])

let header_size = 16

let u32 s off =
  (Char.code s.[off] lsl 24) lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8) lor Char.code s.[off + 3]

let u32_be v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let frames_property name ~count f =
  QCheck.Test.make ~name ~count QCheck.(int_bound 1_000_000) (fun seed ->
      f (Random.State.make [| seed |]))

let prop_truncation =
  frames_property "every truncation of a frame is Need_more" ~count:200
  @@ fun rand ->
  let frame = random_frame rand in
  let len = String.length frame in
  let rec prefixes cut =
    cut = len
    || Wire.decode_frame (String.sub frame 0 cut) = `Need_more
       && prefixes (cut + 1)
  in
  prefixes 0
  && Wire.decode_frame frame
     = `Frame (String.sub frame header_size (len - header_size), len)

(* What [decode_frame] must answer for a frame whose byte [i] was
   damaged into [damaged]: the header field the byte belongs to decides
   the typed error, and a changed length either outruns the bytes there
   are or moves the CRC's window. *)
let expected_after_damage ~frame ~damaged i =
  let available = String.length frame - header_size in
  if i < 4 then `Error Wire.Bad_magic
  else if i < 8 then `Error (Wire.Bad_version (u32 damaged 4))
  else if i < 12 then `Error Wire.Bad_crc
  else if i < 16 then begin
    let len = u32 damaged 12 in
    if len > Wire.max_payload then `Error (Wire.Frame_too_large len)
    else if len > available then `Need_more
    else `Error Wire.Bad_crc
  end
  else `Error Wire.Bad_crc

let flip frame i bit =
  let bytes = Bytes.of_string frame in
  Bytes.set bytes i (Char.chr (Char.code frame.[i] lxor (1 lsl bit)));
  Bytes.to_string bytes

let prop_bit_flip =
  frames_property "every single-bit flip is a typed error, never a payload"
    ~count:100
  @@ fun rand ->
  let frame = random_frame rand in
  let ok = ref true in
  for i = 0 to String.length frame - 1 do
    for bit = 0 to 7 do
      let damaged = flip frame i bit in
      if Wire.decode_frame damaged <> expected_after_damage ~frame ~damaged i
      then ok := false
    done
  done;
  !ok

let forged_lengths =
  [| 0; Wire.max_payload; Wire.max_payload + 1; (1 lsl 31) - 1;
     (1 lsl 32) - 1 |]

(* A header forged field by field — magic, version, CRC and a length
   from the edges of the cap or anywhere in u32 — followed by fewer
   payload bytes than most lengths claim. *)
let forged_frame rand =
  let pick real forged = if Random.State.bool rand then real else forged in
  let magic = pick "TSGW" (random_bytes rand 4) in
  let version =
    pick Wire.protocol_version (Random.State.int rand 0x10000)
  in
  let len =
    pick
      forged_lengths.(Random.State.int rand (Array.length forged_lengths))
      (Random.State.bits rand land 0xffff_ffff)
  in
  let crc = Random.State.bits rand land 0xffff_ffff in
  let tail = random_bytes rand (Random.State.int rand 64) in
  ( magic ^ u32_be version ^ u32_be crc ^ u32_be len ^ tail,
    (magic, version, len, crc, tail) )

let prop_forged_header =
  frames_property "forged magic, version and length are refused in order"
    ~count:2000
  @@ fun rand ->
  let bytes, (magic, version, len, crc, tail) = forged_frame rand in
  let expected =
    if magic <> "TSGW" then `Error Wire.Bad_magic
    else if version <> Wire.protocol_version then
      `Error (Wire.Bad_version version)
    else if len > Wire.max_payload then `Error (Wire.Frame_too_large len)
    else if len > String.length tail then `Need_more
    else if Tabseg_store.Crc32.string tail 0 len = crc then
      `Frame (String.sub tail 0 len, header_size + len)
    else `Error Wire.Bad_crc
  in
  Wire.decode_frame bytes = expected

(* Frames decoded one after another from the start of [bytes], until
   the bytes run out mid-frame or a frame fails — the failure as the
   close reason a [Conn] gives it. *)
let decode_all bytes =
  let rec go off acc =
    match Wire.decode_frame ~off bytes with
    | `Frame (payload, next) -> go next (payload :: acc)
    | `Need_more -> (List.rev acc, None)
    | `Error e -> (List.rev acc, Some (Conn.Protocol e))
  in
  go 0 []

(* The same bytes written into a socket in random pieces and read back
   through one [Conn]. *)
let conn_all rand bytes =
  let w, r = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Unix.close r)
  @@ fun () ->
  Unix.set_nonblock r;
  let conn = Conn.create r in
  let got = ref [] and failed = ref None in
  let rec drain () =
    if !failed = None then begin
      let { Conn.frames; bytes_read; closed } = Conn.read_step conn in
      got := List.rev_append frames !got;
      match closed with
      | Some _ -> failed := closed
      | None -> if bytes_read > 0 then drain ()
    end
  in
  let len = String.length bytes in
  let rec feed off =
    if off < len then begin
      let n = min (1 + Random.State.int rand 48) (len - off) in
      let written = Unix.write_substring w bytes off n in
      drain ();
      feed (off + written)
    end
  in
  feed 0;
  (List.rev !got, !failed)

let prop_conn_pieces =
  frames_property "a Conn fed in random pieces decodes as decode_frame"
    ~count:300
  @@ fun rand ->
  let frames =
    String.concat ""
      (List.init (1 + Random.State.int rand 3) (fun _ -> random_frame rand))
  in
  let bytes =
    match Random.State.int rand 4 with
    | 0 -> frames
    | 1 -> String.sub frames 0 (Random.State.int rand (String.length frames))
    | 2 ->
      flip frames (Random.State.int rand (String.length frames))
        (Random.State.int rand 8)
    | _ -> fst (forged_frame rand)
  in
  conn_all rand bytes = decode_all bytes

let () =
  Alcotest.run "tabseg_fuzz"
    [
      ( "totality",
        [
          QCheck_alcotest.to_alcotest prop_lexer;
          QCheck_alcotest.to_alcotest prop_dom;
          QCheck_alcotest.to_alcotest prop_printer_roundtrip;
          QCheck_alcotest.to_alcotest prop_entity;
          QCheck_alcotest.to_alcotest prop_tokenizer;
          QCheck_alcotest.to_alcotest prop_pipeline;
          QCheck_alcotest.to_alcotest prop_print_parse_fixpoint;
        ] );
      ( "frames",
        [
          QCheck_alcotest.to_alcotest prop_truncation;
          QCheck_alcotest.to_alcotest prop_bit_flip;
          QCheck_alcotest.to_alcotest prop_forged_header;
          QCheck_alcotest.to_alcotest prop_conn_pieces;
        ] );
    ]
