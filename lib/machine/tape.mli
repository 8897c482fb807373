(** Execution tape: the schedule-independent record of one simulated run.

    Assumption 1 (DESIGN.md section 2, cross-checked by the test suite)
    says the {e architectural} behavior of a program — block path, branch
    directions, address stream, cache hit/miss outcomes, final registers
    and memory — does not depend on the DVS schedule; modes only scale
    time and energy.  A tape captures exactly that invariant part once,
    as a compact op stream per dynamic basic block, so any candidate
    schedule can be re-costed by replaying arithmetic on the tape instead
    of re-interpreting every instruction ({!Summary}).

    Ops mirror the cost-bearing calls inside {!Cpu.run} one-for-one
    (each [charge], stall check, pending clear, miss issue and mode-set
    in program order), which is what makes tape replay {e bit-identical}
    to the cycle-accurate simulator: both accumulate the same floats in
    the same order.

    Dynamic blocks are hash-consed into {e variants} (a block label plus
    one observed op sequence; the same label yields different variants
    when its cache outcomes differ), so the replayer can memoize
    per-(variant, mode) cost summaries. *)

open Dvs_ir

(** {2 Op encoding}

    Ops are tagged ints: [(payload lsl 3) lor tag].  Payloads are cycle
    counts, register numbers or mode indices, all small and
    non-negative. *)

val op_compute : int -> int
(** [charge `Compute c]. *)

val op_hit : int -> int
(** [charge `Mem_hit c]. *)

val op_wait : int -> int
(** [wait_for r], recorded only when register [r] had a pending miss
    completion at record time (a schedule-independent fact). *)

val op_clear : int -> int
(** [pending.(r) <- neg_infinity], recorded only when it actually
    cleared something. *)

val op_miss_load : int -> int
(** [pending.(rd) <- issue_miss ()]. *)

val op_miss_store : int
(** [ignore (issue_miss ())]. *)

val op_modeset : int -> int
(** A [Modeset m] instruction (edge mode-sets are {e not} on the tape;
    the replayer applies them from the schedule under test). *)

val op_tag : int -> int

val op_payload : int -> int

val tag_compute : int

val tag_hit : int

val tag_wait : int

val tag_clear : int

val tag_miss_load : int

val tag_miss_store : int

val tag_modeset : int

(** {2 Variants} *)

type variant = {
  label : Cfg.label;  (** the static block this variant came from *)
  ops : int array;  (** cost ops, program order, terminator included *)
  dyn : int;  (** instructions executed in the block *)
  summarizable : bool;
      (** no miss and no [Modeset] op: the block's cost delta depends
          only on the entering mode whenever no miss is in flight at
          entry *)
}

(** {2 Recording} *)

type recorder
(** Attach to a run via {!Cpu.Run_config.make}'s [recorder]; single
    use. *)

val recorder : Cfg.t -> recorder

val enter_block : recorder -> label:Cfg.label -> via:Cfg.label option -> unit

val record : recorder -> int -> unit
(** Append one op to the current block. *)

val instr : recorder -> unit
(** Count one executed instruction in the current block. *)

type t = {
  variants : variant array;
  stream : Bytes.t array;
      (** the packed position stream: one 32-bit word per dynamic
          block, in fixed-size chunks (see "Position stream" below) *)
  positions : int;  (** dynamic blocks on the tape *)
  variant_bits : int;  (** width of a word's variant field *)
  first_edge_pos : int array;
      (** per edge index, the first position entered through that edge
          ([max_int] when the edge was never traversed) *)
  n_edges : int;
  n_regs : int;
  dyn_instrs : int;
  l1 : Cache.stats;
  l2 : Cache.stats;
  registers : int array;  (** final architectural registers *)
  memory : int array;  (** final memory image *)
}

val create :
  recorder ->
  dyn_instrs:int ->
  l1:Cache.stats ->
  l2:Cache.stats ->
  registers:int array ->
  memory:int array -> t
(** Seal the recording, taking the schedule-independent final state
    (registers, memory, cache stats, instruction count) from the
    recording run's stats.  The tape takes ownership of [registers] and
    [memory] (it does not copy them), so pass arrays nobody else
    mutates — a finished {!Cpu.run}'s own.  Raises [Invalid_argument]
    if the recorder saw no blocks. *)

(** {2 Position stream}

    Position [p] is the 32-bit native-endian word at byte
    [4 * (p land (1 lsl chunk_bits - 1))] of [stream.(p lsr chunk_bits)].
    It packs the variant index of the [p]-th dynamic block and the
    {!Cfg.edge_index} it was entered through ([-1] at program entry) as
    [(edge + 1) lsl variant_bits lor variant] — a quarter of the memory
    of two int arrays; the edge field is only as wide as the CFG's edge
    count needs.  {!unpack} decodes it; {!Summary}'s replay loop decodes
    words in place, because it runs once per position of every replay
    and a call per position there costs several percent. *)

val chunk_bits : int
(** A stream chunk holds [1 lsl chunk_bits] positions. *)

val unpack :
  t -> pos:int -> variants:int array -> edges:int array -> int
(** [unpack t ~pos ~variants ~edges] decodes the positions from [pos]
    on into the two buffers — variant index, and incoming edge ([-1] at
    program entry) — as many as [variants] holds or the tape has left,
    and returns how many.  Raises [Invalid_argument] if [pos] is
    negative or [edges] is shorter than [variants]. *)

val pack : n_edges:int -> variant:int -> edge:int -> int
(** The word for one position of a tape over a CFG with [n_edges]
    edges (the recorder's encoding).  Raises [Invalid_argument] when
    [variant] overflows its field or [edge] lies outside [[-1,
    n_edges)]. *)

val positions : t -> int
(** Dynamic blocks on the tape. *)

val first_divergence :
  t -> entry_changed:bool -> edges:int list -> int option
(** The first tape position whose cost could differ between two
    schedules that differ exactly on [edges] (by {!Cfg.edge_index}) and,
    when [entry_changed], on the entry mode.  [None] means no traversed
    edge differs — the two schedules cost identically on this tape.
    Position [0] when the entry mode changed. *)
