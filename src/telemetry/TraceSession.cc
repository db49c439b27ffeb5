/**
 * @file
 * TraceSession, declared in Tracer.h.  It has its own object file so
 * that a static link pulls it only into the drivers that open one.
 */

#include "telemetry/Tracer.h"

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

TraceSession::~TraceSession()
{
    if (path_.empty())
        return;
    setTracingEnabled(false);
    Tracer::instance().writeChromeTrace(path_);
    inform("wrote %zu trace events to %s", Tracer::instance().eventCount(),
           path_.c_str());
}

} // namespace csr::telemetry
