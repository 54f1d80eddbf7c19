open Repro_net

type t =
  | Plain of Msg.t
  | Frame of Msg.t Rchannel.wire
  | Tampered of t

let rec payload_bytes = function
  | Plain m -> Msg.payload_bytes m
  | Frame (Rchannel.Data { payload; _ }) -> 8 + Msg.payload_bytes payload
  | Frame (Rchannel.Ack _) -> 16
  | Tampered inner -> payload_bytes inner

(* The protocol kinds plus the channel's acks, then a "tampered-" twin of
   each for copies the message adversary corrupted. *)
let untampered_names = Array.append Msg.kind_names [| "channel-ack" |]

let kind_names =
  Array.append untampered_names (Array.map (fun k -> "tampered-" ^ k) untampered_names)

let rec untampered_index = function
  | Plain m -> Msg.kind_index m
  | Frame (Rchannel.Data { payload; _ }) -> Msg.kind_index payload
  | Frame (Rchannel.Ack _) -> Array.length Msg.kind_names
  | Tampered inner -> untampered_index inner

let kind_index = function
  | Tampered inner -> Array.length untampered_names + untampered_index inner
  | w -> untampered_index w

let kind w = kind_names.(kind_index w)
let kinds = { Network.names = kind_names; index = kind_index }

let rec layer = function
  | Plain m -> Msg.layer m
  | Frame (Rchannel.Data { payload; _ }) -> Msg.layer payload
  | Frame (Rchannel.Ack _) -> `Net
  | Tampered inner -> layer inner
