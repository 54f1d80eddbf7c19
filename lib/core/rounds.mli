open Repro_net

(** Per-round slots of one consensus instance, shared by {!Consensus},
    {!Consensus_classic} and {!Abcast_monolithic}: proposals keyed by
    (round, proposer), an ack set per round, and one estimate per sender
    per round.

    Instances live for the whole run and use one round in a good run, a
    few under failures, so the slots are plain lists in one mutable record
    (4 words while empty, PERF.md §8), scanned on int keys. Each operation
    keeps the meaning a [Hashtbl] per slot kind has. *)

type t

val create : unit -> t

val set_proposal : t -> round:int -> proposer:Pid.t -> Batch.t -> unit
(** Replaces any earlier proposal for the same (round, proposer). *)

val proposal : t -> round:int -> proposer:Pid.t -> Batch.t option

val proposers : t -> round:int -> Pid.t list
(** The proposers with a proposal for [round], ascending. *)

val reset_acks : t -> round:int -> Pid.t -> unit
(** [reset_acks t ~round p] makes [{p}] the ack set of [round]: a proposing
    coordinator counts its own ack. *)

val add_ack : t -> round:int -> Pid.t -> unit
(** Adds to [round]'s ack set; a repeated ack is ignored. *)

val ack_count : t -> round:int -> int

val add_estimate : t -> round:int -> src:Pid.t -> ts:int -> Batch.t -> unit
(** Records [src]'s estimate, locked in round [ts], for [round]. Only the
    first one per sender and round is kept. *)

val estimates : t -> round:int -> (Pid.t * int * Batch.t) list
(** [round]'s estimates as (sender, lock round, value), in no meaningful
    order. *)

val chosen_estimate :
  t -> round:int -> majority:int -> own:(Pid.t * int * Batch.t) option -> Batch.t option
(** The value [round]'s coordinator proposes: [None] until [majority]
    senders' estimates are held, counting [own] (an estimate that needs no
    message) unless its sender's was recorded; then the one with the
    highest lock round, then the larger batch (so undelivered messages are
    not dropped needlessly), then the lowest pid. Arrival order does not
    matter. *)
