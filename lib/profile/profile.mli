(** Simulation-based program profiling (the paper's Section 5.1).

    For a program and an input, collects everything the MILP formulation
    needs:
    - [G_ij]: how often block [j] is entered through edge [(i, j)]
      (mode-independent — the program's logical behavior does not change
      with frequency);
    - [D_hij]: local-path counts — block [i] entered via [(h, i)] and
      exited via [(i, j)];
    - [T_jm], [E_jm]: per-invocation execution time and energy of block
      [j] pinned at mode [m] (time is {e not} a simple rescaling across
      modes because DRAM time is frequency-invariant).

    Everything comes from {e one} recorded execution
    ({!Dvs_machine.Summary}): the counts are read off the tape's position
    stream, and each mode's costs come from replaying the pinned
    schedule with a block-entry observer.  Tape replay is bit-identical
    to {!Dvs_machine.Cpu.run}, so the result equals one cycle-accurate
    pinned run per mode, bit for bit — the test suite keeps that
    collector as its oracle.

    The virtual {e entry context} is represented by [None] in path
    predecessors, and the entry block is charged through a virtual entry
    edge (see {!Dvs_core.Formulation}). *)

type path = {
  pred : Dvs_ir.Cfg.label option;
      (** [None] for the program-entry invocation *)
  node : Dvs_ir.Cfg.label;
  succ : Dvs_ir.Cfg.label;
}

type t = {
  cfg : Dvs_ir.Cfg.t;
  config : Dvs_machine.Config.t;
  exec_count : int array;  (** per block *)
  edge_count : int array;  (** per {!Dvs_ir.Cfg.edge_index}; this is G *)
  entry_count : int;  (** entries through the virtual entry edge *)
  paths : (path * int) list;  (** D, every observed local path *)
  total_time : float array array;  (** [total_time.(m).(j)] *)
  total_energy : float array array;
  runs : Dvs_machine.Cpu.run_stats array;  (** the per-mode pinned runs *)
}

val collect :
  ?fuel:int -> ?obs:Dvs_obs.t ->
  Dvs_machine.Config.t -> Dvs_ir.Cfg.t -> memory:int array -> t
(** Record the input once, then {!of_summary}.  [fuel] bounds the
    recording run as {!Dvs_machine.Cpu.Run_config.make}'s does (it
    raises {!Dvs_machine.Cpu.Out_of_fuel}).

    [obs] (default {!Dvs_obs.disabled}) gets a [profile.collect] span
    and Volatile counters [profile.recordings] (1) and [profile.replays]
    (one per mode).  It gets none of the simulator's Stable [sim.*]
    instruments, so a run that profiles and one whose profiles come from
    a store keep equal stable metrics. *)

val of_summary : ?obs:Dvs_obs.t -> Dvs_machine.Summary.t -> t
(** The profile of a recorded input, one pinned replay per mode of the
    summary's config.  Share the summary with a
    {!Dvs_core.Verify.Session} of the same input, and the input is
    simulated once for both.  [obs] gets the [profile.replays]
    counter. *)

val block_time : t -> mode:int -> Dvs_ir.Cfg.label -> float
(** Average per-invocation time (0 for never-executed blocks). *)

val block_energy : t -> mode:int -> Dvs_ir.Cfg.label -> float

val g_of_edge : t -> Dvs_ir.Cfg.edge -> int

val pinned_time : t -> mode:int -> float
(** Whole-program wall time pinned at a mode (Table 4's columns). *)

val pinned_energy : t -> mode:int -> float

val pp_summary : Format.formatter -> t -> unit
