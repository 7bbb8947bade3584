module Json = Ser_util.Json
module Mono = Ser_util.Mono

let header_bytes = 4
let default_max_frame = 16 * 1024 * 1024

type error =
  | Closed
  | Bad_length of { len : int; max : int }
  | Bad_json of string
  | Timeout
  | Io of string

let error_to_string = function
  | Closed -> "connection closed mid-frame"
  | Bad_length { len; max } ->
    Printf.sprintf "frame length %d outside [0, %d]" len max
  | Bad_json msg -> Printf.sprintf "frame payload is not JSON: %s" msg
  | Timeout -> "deadline expired while reading a frame"
  | Io msg -> Printf.sprintf "socket error: %s" msg

(* ------------------------------ pure codec ------------------------- *)

let encode_raw payload =
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

let encode j = encode_raw (Json.to_string j)

type decoded =
  | Complete of { payload : string; consumed : int }
  | Incomplete
  | Invalid of error

(* The payload length announced by the header at the start of [s], or
   the error that rejects it. The high bit of a valid length is never
   set (max < 2^31), so a set bit 31 reads as a negative length and is
   rejected the same way an over-limit one is. *)
let header_length ~max s =
  let len = Int32.to_int (String.get_int32_be s 0) in
  if len < 0 || len > max then Error (Bad_length { len; max }) else Ok len

let decode ?(max = default_max_frame) s =
  let have = String.length s in
  if have < header_bytes then Incomplete
  else
    match header_length ~max s with
    | Error e -> Invalid e
    | Ok len when have < header_bytes + len -> Incomplete
    | Ok len ->
      Complete
        { payload = String.sub s header_bytes len;
          consumed = header_bytes + len }

(* --------------------------- fd transport -------------------------- *)

let wait_readable fd deadline =
  let step = 0.25 in
  let rec go () =
    let timeout =
      match deadline with
      | None -> step
      | Some d ->
        let left = d -. Mono.now () in
        if left <= 0. then raise Exit else Float.min step left
    in
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> go ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  try Ok (go ()) with Exit -> Error Timeout

let read_exact fd deadline n =
  let b = Bytes.create n in
  let rec go off =
    if off >= n then Ok (Bytes.unsafe_to_string b)
    else
      match wait_readable fd deadline with
      | Error _ as e -> e
      | Ok () -> (
        match Unix.read fd b off (n - off) with
        | 0 -> Error Closed
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          go off
        | exception Unix.Unix_error (e, _, _) ->
          Error (Io (Unix.error_message e)))
  in
  go 0

let read_frame ?(max = default_max_frame) ?deadline fd =
  match read_exact fd deadline header_bytes with
  | Error _ as e -> e
  | Ok header -> (
    match header_length ~max header with
    | Error _ as e -> e
    | Ok len -> (
      match read_exact fd deadline len with
      | Error _ as e -> e
      | Ok payload -> (
        match Json.of_string payload with
        | Ok j -> Ok j
        | Error msg -> Error (Bad_json msg))))

let write_frame fd j =
  let s = encode j in
  let n = String.length s in
  let b = Bytes.of_string s in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
        Error (Io (Unix.error_message e))
  in
  go 0
