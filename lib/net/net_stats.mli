(** Network traffic counters.

    The analytical evaluation of the paper (§5.2) is entirely in terms of
    how many messages and how many bytes each stack puts on the wire. These
    counters are the measured side of that comparison: every message that
    physically leaves a NIC is recorded here. Local (self) deliveries are
    not counted, matching the paper's accounting.

    These are the run-wide totals only; the split by protocol layer and
    by message kind is in the [net.*] counters of an enabled
    [Repro_obs.Obs] sink. *)

type t

type snapshot = {
  messages : int;  (** Messages sent on the wire. *)
  payload_bytes : int;  (** Protocol payload bytes, headers excluded. *)
  wire_bytes : int;  (** Bytes including per-message framing. *)
}

val create : unit -> t
(** Fresh zeroed counters. *)

val record_send : t -> payload_bytes:int -> wire_bytes:int -> unit
(** Count one message leaving a NIC. *)

val snapshot : t -> snapshot
(** Current totals. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the traffic between two snapshots. *)

val zero : snapshot
(** The empty snapshot. *)

val pp_snapshot : snapshot Fmt.t
(** One line, no trailing newline:
    [<messages> msgs, <payload_bytes> B payload, <wire_bytes> B on wire] —
    e.g. [42 msgs, 4096 B payload, 5462 B on wire]. For the same totals
    split by protocol layer, observe the run with [Repro_obs.Obs] (the
    [net.msgs.*] / [net.*_bytes.*] counters). *)

type dump = { d_messages : int; d_payload : int; d_wire : int }
(** The counter state as pure data, for {!Network}'s snapshot payload. *)

val dump : t -> dump

val load : t -> dump -> unit
(** Overwrite the live counters with a dump's. *)
