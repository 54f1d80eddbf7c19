type snapshot = { messages : int; payload_bytes : int; wire_bytes : int }

(* Three plain totals: [record_send] runs once per wire copy, on every
   run, observed or not. The per-layer and per-kind split lives in the
   [net.*] counters of an enabled [Obs] sink. *)
type t = { mutable messages : int; mutable payload : int; mutable wire : int }

let zero = { messages = 0; payload_bytes = 0; wire_bytes = 0 }
let create () = { messages = 0; payload = 0; wire = 0 }

let record_send t ~payload_bytes ~wire_bytes =
  t.messages <- t.messages + 1;
  t.payload <- t.payload + payload_bytes;
  t.wire <- t.wire + wire_bytes

let snapshot t =
  { messages = t.messages; payload_bytes = t.payload; wire_bytes = t.wire }

let diff (later : snapshot) (earlier : snapshot) =
  {
    messages = later.messages - earlier.messages;
    payload_bytes = later.payload_bytes - earlier.payload_bytes;
    wire_bytes = later.wire_bytes - earlier.wire_bytes;
  }

let pp_snapshot ppf (s : snapshot) =
  Fmt.pf ppf "%d msgs, %d B payload, %d B on wire" s.messages s.payload_bytes
    s.wire_bytes

type dump = { d_messages : int; d_payload : int; d_wire : int }

let dump t = { d_messages = t.messages; d_payload = t.payload; d_wire = t.wire }

let load t d =
  t.messages <- d.d_messages;
  t.payload <- d.d_payload;
  t.wire <- d.d_wire
