module Wire = Tabseg_gateway.Wire
module Gateway = Tabseg_gateway.Gateway
module Service = Tabseg_serve.Service
module Codec = Tabseg_store.Codec

type address =
  | Tcp of string * int
  | Unix_socket of string

let address_to_string = function
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port
  | Unix_socket path -> "unix:" ^ path

let address_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected tcp:HOST:PORT or unix:PATH" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" when rest <> "" -> Ok (Unix_socket rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "address %S: tcp needs HOST:PORT" s)
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some port when host <> "" && port >= 0 && port < 65536 ->
          Ok (Tcp (host, port))
        | _ -> Error (Printf.sprintf "address %S: bad tcp port" s)))
    | _ -> Error (Printf.sprintf "address %S: unknown scheme %S" s scheme))

(* Handshake field caps, enforced server-side before the Hello strings
   reach logs or metrics labels: a hostile client must not get to pick
   a megabyte-long metrics key. Generous for any real client name. *)
let max_hello_client_len = 256
let max_hello_token_len = 1024

type 'a answer = 'a Gateway.answer = {
  id : string;
  outcome : ('a, Gateway.error) result;
  cache_hit : bool;
  latency_s : float;
}

type reply = Tabseg.Api.result answer

type message =
  | Hello of { client : string; token : string option }
  | Welcome of { server_pid : int; procs : int; max_conn_inflight : int }
  | Rejected of { reason : string }
  | Submit of { seq : int; request : Service.request }
  | Reply of { seq : int; reply : reply }
  | Stats_request
  | Stats of (string * float) list
  | Goodbye

(* What a frame's payload marshals. A Reply's result travels as its
   body, so the daemon writes the bytes its worker encoded without
   decoding them; every other message travels as itself. *)
type payload =
  | Message of message
  | Reply_body of { seq : int; response : Gateway.response }

(* The payload codec rides the shared Wire framing: the CRC between
   the socket and [Marshal] gives this edge the same corruption story
   as master↔worker RPC, and [payload] is pure data (records of
   strings, floats and variants — never a closure). The [decode]
   mirror below catches every unmarshalling surprise as a typed
   error. *)
let frame (payload : payload) =
  Wire.frame_payload
    (Marshal.to_string payload []
    [@tabseg.allow "raw-marshal"
        "client-edge payload codec: the bytes travel inside Wire's \
         CRC-verified frames (same discipline as wire.ml, which is \
         blessed); payload is pure data, no closures"])

let encode_reply ~seq response = frame (Reply_body { seq; response })

let encode = function
  | Reply { seq; reply } ->
    encode_reply ~seq
      { reply with outcome = Result.map Codec.encode_body reply.outcome }
  | message -> frame (Message message)

let decode_payload payload =
  match
    match
      (Marshal.from_string payload 0
      [@tabseg.allow "raw-marshal"
          "client-edge payload codec: payload comes out of Wire's \
           CRC-verified framing; any residual mismatch is caught below \
           and returned as a typed error"])
    with
    | Message message -> message
    | Reply_body { seq; response } ->
      Reply { seq; reply = { response with outcome = Gateway.result response } }
  with
  | message -> Ok message
  | exception e -> Error (Printexc.to_string e)
