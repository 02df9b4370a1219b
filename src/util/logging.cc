#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace bvc
{

void
panic(const std::string &msg)
{
    panic(msg.c_str());
}

void
panic(const char *msg)
{
    std::fprintf(stderr, "panic: %s\n", msg);
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace bvc
