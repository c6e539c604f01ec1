(* Blob framing:   "TSGC" kind version md5(payload) payload
                    4     1    1       16           ...

   The payload is OCaml [Marshal] output. Marshal of damaged bytes can
   crash the process, so the digest check runs first and the payload is
   only ever unmarshalled when it is byte-identical to what encode
   produced. The version byte guards intentional schema changes (the
   digest cannot: it only proves the bytes are intact, not that the
   current binary still agrees on what they mean). *)

let magic = "TSGC"
let version = 1
let kind_template = 'T'
let kind_result = 'R'
let digest_len = 16
let prefix_len = String.length magic + 2 + digest_len (* 22 *)

(* A result's payload on its own: what a result blob carries after its
   prefix, and what the serving stack forwards as a reply. *)
type body = string

(* The blob around an already marshalled payload, built in one
   exact-size buffer. *)
let blob ~kind payload =
  let len = String.length payload in
  let blob = Bytes.create (prefix_len + len) in
  Bytes.blit_string magic 0 blob 0 4;
  Bytes.set blob 4 kind;
  Bytes.set blob 5 (Char.chr version);
  Bytes.blit_string (Digest.string payload) 0 blob 6 digest_len;
  Bytes.blit_string payload 0 blob prefix_len len;
  Bytes.unsafe_to_string blob

let encode ~kind value = blob ~kind (Marshal.to_string value [])

(* Whether [blob] is an intact blob of [kind] at this version: its
   prefix checks out and its digest matches the payload where it lies. *)
let verified ~kind blob =
  let len = String.length blob in
  len >= prefix_len
  && String.starts_with ~prefix:magic blob
  && blob.[4] = kind
  && Char.code blob.[5] = version
  && Digest.substring blob prefix_len (len - prefix_len)
     = String.sub blob 6 digest_len

(* Verify, then unmarshal the payload where it lies in the blob. *)
let decode ~kind blob =
  if not (verified ~kind blob) then None
  else
    match Marshal.from_string blob prefix_len with
    | value -> Some value
    | exception _ -> None

let encode_template (template : Tabseg_template.Template.t) =
  encode ~kind:kind_template template

let decode_template blob : Tabseg_template.Template.t option =
  decode ~kind:kind_template blob

let encode_body (result : Tabseg.Api.result) : body =
  Marshal.to_string result []

let decode_body (body : body) : Tabseg.Api.result = Marshal.from_string body 0
let result_blob (body : body) = blob ~kind:kind_result body

let result_body blob =
  if verified ~kind:kind_result blob then
    Some (String.sub blob prefix_len (String.length blob - prefix_len))
  else None
