open Repro_sim
open Repro_net

(** Application messages submitted to atomic broadcast.

    A message is identified by its origin process and a per-origin sequence
    number; the payload itself is represented only by its size, which is all
    the protocols and the cost model need (§5.1 varies size, not content).
    The abcast timestamp rides along for the early-latency metric
    [L = (min_i t_i) - t0] of §5.1. *)

type id = { origin : Pid.t; seq : int }
(** Globally unique message identity. *)

type t = {
  id : id;
  size : int;  (** Payload bytes (the paper's [l]). *)
  abcast_at : Time.t;  (** Instant the abcast event completed ([t0]). *)
}

val make : origin:Pid.t -> seq:int -> size:int -> abcast_at:Time.t -> t

val compare_id : id -> id -> int
(** Lexicographic on [(origin, seq)] — the deterministic delivery order
    used inside a decided batch. *)

val compare : t -> t -> int
(** {!compare_id} on the messages' identities. *)

val equal_id : id -> id -> bool

val pp_id : id Fmt.t
(** Prints [p1#42]. *)

val pp : t Fmt.t
(** Prints [p1#42(1024B)]. *)
