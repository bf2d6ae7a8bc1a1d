(** Energy/cost model of the distributed UPS (§2.1, Figure 1).

    Reproduces the paper's measurement that saving DRAM to one SSD costs
    ~110 J/GB (≈90 J of which is CPU-socket power during the save) and that
    additional SSDs reduce the energy, and its conclusion that total
    non-volatility cost stays under 15% of the base DRAM cost. *)

type t = {
  cpu_power_w : float;
  ssd_bandwidth_gbps : float;
  fixed_j_per_gb : float;
}

val default : t

val save_seconds_per_gb : t -> ssds:int -> float
val joules_per_gb : t -> ssds:int -> float

val ssd_reserve_per_gb : float
val dram_per_gb : float

val energy_cost_per_gb : t -> ssds:int -> float

val overhead_fraction : t -> ssds:int -> float
(** Non-volatility cost as a fraction of DRAM cost; < 0.15 per the paper. *)
