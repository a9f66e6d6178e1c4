#include "analysis/source.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace vic::analysis
{
namespace fs = std::filesystem;

namespace
{

const char *const kTopDirs[] = {"src", "tools", "bench", "tests",
                                "examples"};

bool
wantedExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh";
}

std::string
readWhole(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // anonymous namespace

std::string
normalizeRoot(const std::string &root)
{
    std::string r = root.empty() ? std::string(".") : root;
    while (r.size() > 1 && (r.back() == '/' || r.back() == '\\'))
        r.pop_back();
    return r;
}

std::vector<SourceFile>
loadTree(const std::string &root)
{
    const fs::path base(normalizeRoot(root));
    std::vector<fs::path> paths;
    for (const char *top : kTopDirs) {
        const fs::path dir = base / top;
        std::error_code ec;
        if (!fs::is_directory(dir, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(dir, ec);
             !ec && it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file())
                continue;
            const fs::path &p = it->path();
            if (!wantedExtension(p))
                continue;
            // Fixture trees are lint roots of their own: skip them
            // when they are INSIDE the root being scanned (the
            // relative path is what matters — a fixture tree passed
            // AS the root scans normally).
            if (fs::relative(p, base).generic_string().find(
                    "lint_fixtures") != std::string::npos)
                continue;
            paths.push_back(p);
        }
    }

    std::vector<SourceFile> files;
    files.reserve(paths.size());
    for (const fs::path &p : paths) {
        SourceFile f;
        f.path = fs::relative(p, base).generic_string();
        f.text = readWhole(p);
        files.push_back(std::move(f));
    }
    std::sort(files.begin(), files.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path < b.path;
              });
    for (SourceFile &f : files)
        f.tokens = tokenize(f.text);
    return files;
}

} // namespace vic::analysis
