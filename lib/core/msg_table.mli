(** Mutable tables of application messages keyed by identity.

    Every stack keeps the messages it knows but has not yet ordered (the
    modular [pending] set, the monolithic coordinator pool and own
    outstanding messages, the indirect stack's payloads and pending
    identifiers). Identities are an origin process and a per-origin
    sequence number counted densely from 0, so a table keeps one row per
    origin, indexed by [seq] over the row's live window: [add], [remove]
    and lookups are O(1) with no allocation once a row has grown to its
    working size, where the persistent map or hash table each stack kept
    before paid a tree walk and rebalance, or a hash of an allocated key,
    per operation (see PERF.md §9).

    {2 Determinism obligations}

    - Every answer depends only on the set of messages in the table,
      never on insertion order, hashing, wall time or randomness. The
      layout (row bases and capacities) depends on the order of
      operations, which is itself deterministic, and never shows in a
      result.
    - The only traversals, {!take} and {!to_list}, are in ascending
      [(origin, seq)] order: the deterministic batch order of §3.3. *)

type t

val create : n:int -> t
(** An empty table for origins [0 .. n-1]. *)

val add : t -> App_msg.t -> unit
(** Inserts or replaces: of two messages with one identity, the last one
    added stays (an equivocated copy shares its original's identity but
    not its size). @raise Invalid_argument on a negative [seq]. *)

val remove : t -> App_msg.id -> unit
(** No-op if absent. *)

val find_opt : t -> App_msg.id -> App_msg.t option
val mem : t -> App_msg.id -> bool

val size : t -> int
(** Number of messages. O(1). *)

val is_empty : t -> bool

val take : t -> cap:int -> Batch.t
(** The first [cap] messages in ascending [(origin, seq)] order (all of
    them if fewer), as a batch. The table is unchanged. *)

val to_list : t -> App_msg.t list
(** Every message, ascending by identity. *)

val assign : from:t -> t -> unit
(** Overwrite [t]'s contents with [from]'s (restore path).
    @raise Invalid_argument if the origin counts differ. *)
