// Unit-dimension contracts (see DESIGN.md §12 "Dimensional analysis").
//
// `sim::Time` and `sim::Rate` are bare arithmetic aliases, so a field or
// parameter declared `double`/`std::uint64_t` carries its physical unit only
// in its name.  These macros make the unit machine-readable;
// `tools/fastcc-units` seeds its dimension lattice from them (alongside the
// declared Time/Rate types) and then checks every expression's arithmetic:
// adding a Time to a Rate, squaring a Time into a Time sink, raw *8/*1000
// conversion factors outside sim/time.h's helpers, and casts that launder a
// dimension are all blocking findings.
//
//   FASTCC_UNIT_NS       the value is a time in nanoseconds (Time-dimension)
//   FASTCC_UNIT_BPNS     the value is a rate in bytes per nanosecond
//                        (Rate-dimension; 12.5 B/ns == 100 Gbps)
//   FASTCC_UNIT_BYTES    the value is a byte count (Bytes-dimension);
//                        Bytes / Time = Rate, Rate x Time = Bytes
//   FASTCC_DIMENSIONLESS the value is a pure number (ratio, multiplier,
//                        count); storing a Time/Rate-dimensioned value into
//                        it is a unit-mix finding
//
// Place the macro at the start of the declaration (field, parameter, or
// function return), e.g. `FASTCC_UNIT_BYTES double& window_bytes;` or
// `FASTCC_UNIT_BPNS double total_send_rate() const;`.
#pragma once

#if defined(__clang__)
#define FASTCC_UNIT_NS [[clang::annotate("fastcc::unit_ns")]]
#define FASTCC_UNIT_BPNS [[clang::annotate("fastcc::unit_bpns")]]
#define FASTCC_UNIT_BYTES [[clang::annotate("fastcc::unit_bytes")]]
#define FASTCC_DIMENSIONLESS [[clang::annotate("fastcc::dimensionless")]]
#else
// GCC warns on unknown scoped attributes (-Wattributes); the token-mode
// analyzer keys on the macro *names* in source, so expanding to nothing
// loses no information outside clang-based tooling.
#define FASTCC_UNIT_NS
#define FASTCC_UNIT_BPNS
#define FASTCC_UNIT_BYTES
#define FASTCC_DIMENSIONLESS
#endif
