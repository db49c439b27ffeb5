/**
 * @file
 * The instrumentation macros every component uses.
 *
 * All tracing in csr goes through these macros rather than direct
 * Tracer calls so that every site costs exactly one relaxed load +
 * predictable branch while tracing is runtime-disabled.  See Tracer.h
 * for the overhead contract and DESIGN.md "Telemetry" for the event
 * taxonomy.
 *
 *   CSR_TRACE_SPAN(cat, name)        RAII duration span; name must be
 *                                    a string literal.
 *   CSR_TRACE_SPAN_DYN(cat, expr)    span with a computed label; the
 *                                    label expression is evaluated
 *                                    (and interned) only when tracing
 *                                    is enabled.
 *   CSR_TRACE_INSTANT(cat, name)     instant event.
 *   CSR_TRACE_INSTANT_V(cat, name, v) instant with a numeric arg.
 *   CSR_TRACE_COUNTER(cat, name, v)  counter sample (Perfetto track).
 */

#ifndef CSR_TELEM_TELEMETRY_H
#define CSR_TELEM_TELEMETRY_H

#include "telemetry/Tracer.h"

#define CSR_TELEM_CAT2(a, b) a##b
#define CSR_TELEM_CAT(a, b) CSR_TELEM_CAT2(a, b)

#define CSR_TRACE_SPAN(cat, name)                                            \
    ::csr::telemetry::ScopedSpan CSR_TELEM_CAT(csr_trace_span_,              \
                                               __LINE__)(cat, name)

#define CSR_TRACE_SPAN_DYN(cat, labelExpr)                                   \
    ::csr::telemetry::ScopedSpan CSR_TELEM_CAT(csr_trace_span_, __LINE__)(   \
        cat, ::csr::telemetry::tracingEnabled()                              \
                 ? ::csr::telemetry::Tracer::instance().intern(labelExpr)    \
                 : "")

#define CSR_TRACE_INSTANT(cat, name)                                         \
    do {                                                                     \
        if (::csr::telemetry::tracingEnabled())                              \
            ::csr::telemetry::Tracer::instance().instant(cat, name);         \
    } while (0)

#define CSR_TRACE_INSTANT_V(cat, name, value)                                \
    do {                                                                     \
        if (::csr::telemetry::tracingEnabled())                              \
            ::csr::telemetry::Tracer::instance().instant(                    \
                cat, name, static_cast<double>(value));                      \
    } while (0)

#define CSR_TRACE_COUNTER(cat, name, value)                                  \
    do {                                                                     \
        if (::csr::telemetry::tracingEnabled())                              \
            ::csr::telemetry::Tracer::instance().counter(                    \
                cat, name, static_cast<double>(value));                      \
    } while (0)

#endif // CSR_TELEM_TELEMETRY_H
