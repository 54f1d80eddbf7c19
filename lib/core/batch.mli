(** Batches of application messages — the values decided by consensus.

    The atomic broadcast reduction (§3.3) runs consensus on {e sets} of
    unordered messages; a decided batch is then adelivered "in some
    deterministic order". We keep batches sorted by message identity, which
    makes them canonical: two batches with the same messages are equal, and
    delivery order is determined by the batch alone.

    A batch is an immutable array, strictly ascending by identity: [size]
    is O(1), [mem] a binary search, and walking it ([iter], [fold],
    [to_list]) follows adelivery order. Batches are built once and never
    updated; the unordered messages a stack still has to propose live in a
    {!Msg_table}, whose [take] builds the proposal. *)

type t
(** A canonical (sorted, duplicate-free) batch. *)

val empty : t
val is_empty : t -> bool

val of_list : App_msg.t list -> t
(** Sorts and deduplicates by identity. Of several messages with one
    identity the {e last} in the list is kept (an equivocated copy shares
    its original's identity but not its size). Input that is already
    strictly ascending is taken as it is, without a sort. *)

val of_array : App_msg.t array -> t
(** {!of_list} on an array. The batch may be [a] itself (and [a] may be
    sorted in place), so the caller must not use [a] afterwards. *)

val to_list : t -> App_msg.t list
(** Ascending identity order — the adelivery order. *)

val iter : (App_msg.t -> unit) -> t -> unit
(** In ascending identity order. *)

val fold : ('a -> App_msg.t -> 'a) -> 'a -> t -> 'a
(** Left fold in ascending identity order. *)

val size : t -> int
(** Number of messages (the paper's per-consensus [M]). O(1). *)

val payload_bytes : t -> int
(** Sum of the payload sizes of all messages. *)

val mem : t -> App_msg.id -> bool
(** Binary search. *)

val equal : t -> t -> bool
(** Same message identities. *)

val pp : t Fmt.t
(** Prints [{p1#0, p2#3}]. *)
