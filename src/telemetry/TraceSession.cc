/**
 * @file
 * TraceSession, declared in Tracer.h.  It has its own object file so
 * that a static link pulls it only into the drivers that open one.
 */

#include "telemetry/Tracer.h"

#include <exception>

#include "robust/Errors.h"
#include "util/Logging.h"

namespace csr::telemetry
{

TraceSession::TraceSession(const std::string &path) : path_(path)
{
    if (path_.empty())
        return;
    Tracer::instance().clear();
    setTracingEnabled(true);
}

TraceSession::~TraceSession() noexcept(false)
{
    if (path_.empty())
        return;
    setTracingEnabled(false);
    try {
        Tracer::instance().writeChromeTrace(path_);
        inform("wrote %zu trace events to %s",
               Tracer::instance().eventCount(), path_.c_str());
    } catch (const Error &e) {
        if (std::uncaught_exceptions() == 0)
            throw;
        warn("%s", e.what());
    }
}

} // namespace csr::telemetry
