(** Positional postings: the occurrences of one term in one document. *)

type t = {
  doc_id : int;
  positions : int array;  (** sorted token locations of the occurrences *)
}

val term_frequency : t -> int

val make : doc_id:int -> positions:int array -> t
(** Positions are copied and sorted defensively. *)

val of_sorted : doc_id:int -> positions:int array -> t
(** A posting over positions already in strictly increasing order: one
    O(tf) check, no copy or sort — the array is adopted as-is (the
    caller must not mutate it afterwards). Raises [Invalid_argument]
    on an unsorted or duplicated position. *)

val pp : Format.formatter -> t -> unit
