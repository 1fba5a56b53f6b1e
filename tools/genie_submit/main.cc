/**
 * @file
 * genie_submit: the genie_serve client.
 *
 *   genie_submit --socket=PATH submit <workload> [key=value ...]
 *                [--space=S] [--filter=F] [--threads=N]
 *                [--wait] [--out=FILE]
 *   genie_submit --socket=PATH status  <job>
 *   genie_submit --socket=PATH wait    <job> [--out=FILE]
 *   genie_submit --socket=PATH results <job> [--out=FILE]
 *   genie_submit --socket=PATH stats | ping | drain
 *
 * Speaks the `genie-serve-1` line protocol. `submit --wait` blocks
 * until the job is terminal; with `--out` it then fetches the
 * results document ("-" = stdout) — the one-command equivalent of a
 * plain genie_sweep run, except crash-tolerant on the server side.
 *
 * exit: 0 ok, 1 connection/protocol error or server-side refusal
 *       ("busy", "draining", validation), 2 usage, 3 the awaited job
 *       ended failed or quarantined.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <vector>

#include "scope/json.hh"
#include "serve/protocol.hh"
#include "sim/whole_number.hh"

namespace
{

using namespace genie;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: genie_submit --socket=PATH submit <workload> "
        "[key=value ...]\n"
        "         [--space=S] [--filter=F] [--threads=N] [--wait] "
        "[--out=FILE]\n"
        "       genie_submit --socket=PATH status <job>\n"
        "       genie_submit --socket=PATH wait <job> [--out=FILE]\n"
        "       genie_submit --socket=PATH results <job> "
        "[--out=FILE]\n"
        "       genie_submit --socket=PATH stats | ping | drain\n"
        "exit:  0 ok, 1 error/refused, 2 usage, 3 awaited job "
        "failed\n");
    return 2;
}

/** One connection to the daemon: line-oriented reads over a stream
 * socket, with the greeting consumed and verified up front. */
class Connection
{
  public:
    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    open(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
            std::fprintf(stderr, "error: bad socket path\n");
            return false;
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0 ||
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            std::fprintf(stderr, "error: cannot connect to %s: %s\n",
                         path.c_str(), std::strerror(errno));
            return false;
        }
        std::string greeting;
        if (!readLine(greeting) ||
            greeting.find(serveSchemaName()) == std::string::npos) {
            std::fprintf(stderr,
                         "error: %s is not a genie-serve-1 socket\n",
                         path.c_str());
            return false;
        }
        return true;
    }

    bool
    send(const std::string &line)
    {
        std::size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd, line.data() + off,
                               line.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                std::fprintf(stderr, "error: send: %s\n",
                             std::strerror(errno));
                return false;
            }
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool
    readLine(std::string &out)
    {
        for (;;) {
            std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                out = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return true;
            }
            if (!fill())
                return false;
        }
    }

    bool
    readExact(std::size_t bytes, std::string &out)
    {
        while (buf.size() < bytes) {
            if (!fill())
                return false;
        }
        out = buf.substr(0, bytes);
        buf.erase(0, bytes);
        return true;
    }

  private:
    bool
    fill()
    {
        char chunk[4096];
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                return true;
            std::fprintf(stderr,
                         "error: connection closed by daemon\n");
            return false;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
        return true;
    }

    int fd = -1;
    std::string buf;
};

/** Parse a response line; prints and fails on malformed input. */
bool
parseResponse(const std::string &line, JsonValue &out)
{
    JsonParseResult parsed = parseJson(line);
    if (!parsed.ok || !parsed.value.isObject()) {
        std::fprintf(stderr, "error: malformed response: %s\n",
                     line.c_str());
        return false;
    }
    out = parsed.value;
    return true;
}

bool
responseOk(const JsonValue &doc)
{
    const JsonValue *ok = doc.get("ok");
    return ok && ok->isBool() && ok->boolean();
}

std::string
responseField(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.get(key);
    return v && v->isString() ? v->string() : "";
}

/** Round-trip one request; prints the response line. Returns the
 * parsed response through @p doc. */
bool
transact(Connection &conn, const std::string &request, JsonValue &doc,
         bool echo = true)
{
    std::string line;
    if (!conn.send(request) || !conn.readLine(line))
        return false;
    if (!parseResponse(line, doc))
        return false;
    if (echo)
        std::printf("%s\n", line.c_str());
    if (!responseOk(doc)) {
        std::fprintf(stderr, "error: %s\n",
                     responseField(doc, "error").c_str());
        return false;
    }
    return true;
}

/** Fetch a done job's results document into @p file ("-" = stdout). */
bool
fetchResults(Connection &conn, const std::string &jobId,
             const std::string &file)
{
    JsonValue doc;
    if (!transact(conn, serveJobOpLine("results", jobId), doc,
                  /*echo=*/false))
        return false;
    const JsonValue *bytes = doc.get("bytes");
    if (!bytes || !bytes->isNumber()) {
        std::fprintf(stderr, "error: results framing lacks bytes\n");
        return false;
    }
    std::string payload;
    if (!conn.readExact(
            static_cast<std::size_t>(bytes->number()), payload))
        return false;
    if (file == "-") {
        std::fwrite(payload.data(), 1, payload.size(), stdout);
        return true;
    }
    std::ofstream out(file, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     file.c_str());
        return false;
    }
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    std::fprintf(stderr, "wrote %s (%zu bytes)\n", file.c_str(),
                 payload.size());
    return true;
}

/** Wait for @p jobId; 0 done, 3 failed/quarantined, 1 error. Fetches
 * results into @p outFile when set and the job finished. */
int
waitAndFetch(Connection &conn, const std::string &jobId,
             const std::string &outFile)
{
    JsonValue doc;
    if (!transact(conn, serveJobOpLine("wait", jobId), doc))
        return 1;
    if (responseField(doc, "state") != "done")
        return 3;
    if (!outFile.empty() && !fetchResults(conn, jobId, outFile))
        return 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    std::string command;
    std::string jobId;
    std::string outFile;
    bool wait = false;
    JobDescriptor job;
    job.threads = 1;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--socket=", 9) == 0) {
            socketPath = arg + 9;
        } else if (std::strncmp(arg, "--space=", 8) == 0) {
            job.space = arg + 8;
        } else if (std::strncmp(arg, "--filter=", 9) == 0) {
            job.filter = arg + 9;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            if (!parseWholeNumber(arg + 10, job.threads))
                return usage();
        } else if (std::strcmp(arg, "--wait") == 0) {
            wait = true;
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            outFile = arg + 6;
        } else if (arg[0] == '-') {
            return usage();
        } else if (command.empty()) {
            command = arg;
        } else if (command == "submit") {
            if (job.workload.empty())
                job.workload = arg;
            else
                job.config.push_back(arg);
        } else if (jobId.empty()) {
            jobId = arg;
        } else {
            return usage();
        }
    }
    if (socketPath.empty() || command.empty())
        return usage();

    Connection conn;
    if (!conn.open(socketPath))
        return 1;

    if (command == "ping" || command == "stats" ||
        command == "drain") {
        JsonValue doc;
        return transact(conn, serveSimpleOpLine(command.c_str()),
                        doc)
                   ? 0
                   : 1;
    }
    if (command == "submit") {
        if (job.workload.empty())
            return usage();
        JsonValue doc;
        if (!transact(conn, serveSubmitLine(job), doc))
            return 1;
        if (!wait)
            return 0;
        return waitAndFetch(conn, responseField(doc, "job"),
                            outFile);
    }
    if (jobId.empty())
        return usage();
    if (command == "status") {
        JsonValue doc;
        return transact(conn, serveJobOpLine("status", jobId), doc)
                   ? 0
                   : 1;
    }
    if (command == "wait")
        return waitAndFetch(conn, jobId, outFile);
    if (command == "results") {
        return fetchResults(conn, jobId,
                            outFile.empty() ? "-" : outFile)
                   ? 0
                   : 1;
    }
    return usage();
}
