(** Textual problem-instance format (round-trippable).

    Grammar (one directive per line, '#' starts a comment):
    {v
    arch processors <int> recfreq <float> device <preset-name>
    tasks <int>
    task <id> [name <string>]
    impl sw time <int>
    impl hw time <int> clb <int> bram <int> dsp <int> [module <int>]
    edge <src> <dst>
    v}
    [impl] lines attach to the most recent [task] line. The device must be
    one of the {!Resched_fabric.Device.presets}. *)

val to_string : Instance.t -> string
(** Serialize; device is emitted by preset name (raises [Invalid_argument]
    for non-preset devices). *)

val of_string : string -> (Instance.t, string) result
(** Parse. Every malformed input is an [Error], never an exception:
    unknown directives, bad numbers, values the {!Arch}, {!Impl} and
    graph constructors reject, and a cyclic edge set (reported at the
    last [edge] line). The message carries the offending line number,
    except for whole-instance checks such as a task with no software
    implementation. *)

val save : string -> Instance.t -> unit
(** Write to a file path. *)

val load : string -> (Instance.t, string) result
