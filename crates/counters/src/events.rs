//! The counter events and metrics of the paper's Table III.

/// Whether a counter is a raw hardware event ("E") or a derived metric
/// ("M"), as in Table III's Type column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// A single hardware counter value.
    Event,
    /// A characteristic derived from one or more counter events.
    Metric,
}

/// The counters used to profile the FMM kernel (Table III).
///
/// Declared in [`TABLE3_EVENTS`] order, so the discriminant is the
/// index into counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
#[repr(usize)]
pub enum CounterEvent {
    /// # of double-precision floating point multiply-accumulate operations.
    flops_dp_fma,
    /// # of double-precision floating point add operations.
    flops_dp_add,
    /// # of double-precision floating point multiply operations.
    flops_dp_mul,
    /// # of integer instructions.
    inst_integer,
    /// # of cache lines that hit in L1 cache.
    l1_global_load_hit,
    /// Total read requests for slice 0 of L2 cache.
    l2_subp0_total_read_sector_queries,
    /// # of load instructions.
    gld_request,
    /// # of shared load transactions.
    l1_shared_load_transactions,
    /// # of DRAM read requests to sub partition 0.
    fb_subp0_read_sectors,
    /// # of DRAM read requests to sub partition 1.
    fb_subp1_read_sectors,
    /// # of read requests from L1 that hit in slice 0 of L2 cache.
    l2_subp0_read_l1_hit_sectors,
    /// # of read requests from L1 that hit in slice 1 of L2 cache.
    l2_subp1_read_l1_hit_sectors,
    /// # of read requests from L1 that hit in slice 2 of L2 cache.
    l2_subp2_read_l1_hit_sectors,
    /// # of read requests from L1 that hit in slice 3 of L2 cache.
    l2_subp3_read_l1_hit_sectors,
    /// # of store instructions.
    gst_request,
    /// Total write requests to slice 0 of L2 cache.
    l2_subp0_total_write_sector_queries,
    /// # of shared store transactions.
    l1_shared_store_transactions,
}

/// All Table III counters in the table's order.
pub const TABLE3_EVENTS: [CounterEvent; 17] = [
    CounterEvent::flops_dp_fma,
    CounterEvent::flops_dp_add,
    CounterEvent::flops_dp_mul,
    CounterEvent::inst_integer,
    CounterEvent::l1_global_load_hit,
    CounterEvent::l2_subp0_total_read_sector_queries,
    CounterEvent::gld_request,
    CounterEvent::l1_shared_load_transactions,
    CounterEvent::fb_subp0_read_sectors,
    CounterEvent::fb_subp1_read_sectors,
    CounterEvent::l2_subp0_read_l1_hit_sectors,
    CounterEvent::l2_subp1_read_l1_hit_sectors,
    CounterEvent::l2_subp2_read_l1_hit_sectors,
    CounterEvent::l2_subp3_read_l1_hit_sectors,
    CounterEvent::gst_request,
    CounterEvent::l2_subp0_total_write_sector_queries,
    CounterEvent::l1_shared_store_transactions,
];

impl CounterEvent {
    /// Index into [`TABLE3_EVENTS`]-ordered arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Event vs metric, as Table III tags them.
    pub fn kind(self) -> CounterKind {
        match self {
            CounterEvent::flops_dp_fma
            | CounterEvent::flops_dp_add
            | CounterEvent::flops_dp_mul
            | CounterEvent::inst_integer => CounterKind::Metric,
            _ => CounterKind::Event,
        }
    }

    /// The nvprof counter name.
    pub fn name(self) -> &'static str {
        match self {
            CounterEvent::flops_dp_fma => "flops_dp_fma",
            CounterEvent::flops_dp_add => "flops_dp_add",
            CounterEvent::flops_dp_mul => "flops_dp_mul",
            CounterEvent::inst_integer => "inst_integer",
            CounterEvent::l1_global_load_hit => "l1_global_load_hit",
            CounterEvent::l2_subp0_total_read_sector_queries => {
                "l2_subp0_total_read_sector_queries"
            }
            CounterEvent::gld_request => "gld_request",
            CounterEvent::l1_shared_load_transactions => "l1_shared_load_transactions",
            CounterEvent::fb_subp0_read_sectors => "fb_subp0_read_sectors",
            CounterEvent::fb_subp1_read_sectors => "fb_subp1_read_sectors",
            CounterEvent::l2_subp0_read_l1_hit_sectors => "l2_subp0_read_l1_hit_sectors",
            CounterEvent::l2_subp1_read_l1_hit_sectors => "l2_subp1_read_l1_hit_sectors",
            CounterEvent::l2_subp2_read_l1_hit_sectors => "l2_subp2_read_l1_hit_sectors",
            CounterEvent::l2_subp3_read_l1_hit_sectors => "l2_subp3_read_l1_hit_sectors",
            CounterEvent::gst_request => "gst_request",
            CounterEvent::l2_subp0_total_write_sector_queries => {
                "l2_subp0_total_write_sector_queries"
            }
            CounterEvent::l1_shared_store_transactions => "l1_shared_store_transactions",
        }
    }

    /// The human description from Table III.
    pub fn description(self) -> &'static str {
        match self {
            CounterEvent::flops_dp_fma => {
                "# of double-precision floating point multiply-accumulate operations"
            }
            CounterEvent::flops_dp_add => "# of double-precision floating point add operations",
            CounterEvent::flops_dp_mul => {
                "# of double-precision floating point multiply operations"
            }
            CounterEvent::inst_integer => "# of integer instructions",
            CounterEvent::l1_global_load_hit => "# of cache lines that hit in L1 cache",
            CounterEvent::l2_subp0_total_read_sector_queries => {
                "Total read request for slice 0 of L2 cache"
            }
            CounterEvent::gld_request => "# of load instructions",
            CounterEvent::l1_shared_load_transactions => "# of shared load transactions",
            CounterEvent::fb_subp0_read_sectors => "# of DRAM read request to sub partition 0",
            CounterEvent::fb_subp1_read_sectors => "# of DRAM read request to sub partition 1",
            CounterEvent::l2_subp0_read_l1_hit_sectors => {
                "# of read requests from L1 that hit in slice 0 of L2 cache"
            }
            CounterEvent::l2_subp1_read_l1_hit_sectors => {
                "# of read requests from L1 that hit in slice 1 of L2 cache"
            }
            CounterEvent::l2_subp2_read_l1_hit_sectors => {
                "# of read requests from L1 that hit in slice 2 of L2 cache"
            }
            CounterEvent::l2_subp3_read_l1_hit_sectors => {
                "# of read requests from L1 that hit in slice 3 of L2 cache"
            }
            CounterEvent::gst_request => "# of store instructions",
            CounterEvent::l2_subp0_total_write_sector_queries => {
                "Total write request to slice 0 of L2 cache"
            }
            CounterEvent::l1_shared_store_transactions => "# of shared store transactions",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_counters_as_in_table3() {
        assert_eq!(TABLE3_EVENTS.len(), 17);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, e) in TABLE3_EVENTS.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn four_metrics_rest_events() {
        let metrics = TABLE3_EVENTS.iter().filter(|e| e.kind() == CounterKind::Metric).count();
        assert_eq!(metrics, 4);
    }

    #[test]
    fn names_are_nvprof_style() {
        assert_eq!(CounterEvent::flops_dp_fma.name(), "flops_dp_fma");
        assert_eq!(
            CounterEvent::l2_subp3_read_l1_hit_sectors.name(),
            "l2_subp3_read_l1_hit_sectors"
        );
        // All names unique.
        let mut names: Vec<_> = TABLE3_EVENTS.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn descriptions_are_present() {
        for e in TABLE3_EVENTS {
            assert!(!e.description().is_empty());
        }
    }
}
